package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/scenario"
	"repro/internal/serve"
)

// The serve-mixed workload: an open loop at a fixed rate against the
// in-process ttsimd stack at ttsimd's flag defaults, over loopback HTTP.
// Reads repeat corpus scenarios and cheap paper experiments (cache hits
// after a warm-up); writes are inline variants of diurnal-baseline with
// fresh seeds (a simulation plus an fsync'd journal append each); streams
// replay a corpus scenario as NDJSON (an observed run that bypasses the
// cache). Each request is timed from when it was due.

const (
	// serveRate is the arrival rate. At the seed commit it keeps the
	// server well below saturation on two cores: about 4.5 slow requests
	// a second at ~50 ms each, and reads of a few milliseconds between
	// them, so requests rarely queue behind one another.
	serveRate = 30.0
	// serveLimit is the per-request latency limit behind slo_frac.
	serveLimit = 250 * time.Millisecond
)

// serveBlock is the request mix: every block of 40 consecutive requests
// holds 28 corpus-name reads, 6 cheap-experiment reads, 5 writes and one
// stream. The six slow requests keep these evenly spaced slots, so at
// serveRate one is due about every 220 ms and they seldom overlap; the
// seed shuffles the reads among the other slots. With 12.5% writes and
// 2.5% streams the p95 falls inside the writes rather than on the edge
// between two kinds of request.
var serveBlock = []reqKind{
	write, readName, readName, readExp, readName, readName, readName,
	write, readName, readName, readExp, readName, readName, readName,
	write, readName, readName, readExp, readName, readName,
	stream, readName, readName, readExp, readName, readName, readName,
	write, readName, readName, readExp, readName, readName, readName,
	write, readName, readName, readExp, readName, readName,
}

type reqKind int

const (
	readName reqKind = iota // corpus scenario by name: a cache hit
	readExp                 // cheap paper experiment: a cache hit
	write                   // inline diurnal-baseline variant: a run and a journal append
	stream                  // NDJSON replay of a corpus scenario: an observed run
)

func (k reqKind) String() string {
	return [...]string{"read-name", "read-exp", "write", "stream"}[k]
}

// cheapExperiments are the paper experiments the reads repeat.
var cheapExperiments = []string{"table1", "table2", "fig10", "tco"}

// streamScenario is the corpus entry the streams replay: the base of the
// writes too, so every slow request costs about the same and the tail
// percentile does not sit on a boundary between unlike requests.
const streamScenario = "diurnal-baseline"

// request is one scheduled call.
type request struct {
	kind reqKind
	due  time.Duration // offset from the loop start
	path string
	body string
	// golden is the expected body stem for reads and streams; seed is the
	// workload seed of a write.
	golden string
	seed   int64
}

// schedule builds n requests at serveRate from the seed: the block mix
// with its reads shuffled, reads cycling through shuffled key lists (so
// every hot key is re-read long before the cache could evict it), writes
// with fresh seeds.
func schedule(seed int64, n int, names []string) []request {
	rng := rand.New(rand.NewSource(seed))
	hot := append([]string(nil), names...)
	rng.Shuffle(len(hot), func(i, j int) { hot[i], hot[j] = hot[j], hot[i] })
	exps := append([]string(nil), cheapExperiments...)
	rng.Shuffle(len(exps), func(i, j int) { exps[i], exps[j] = exps[j], exps[i] })
	used := map[int64]bool{}
	var nName, nExp int
	out := make([]request, 0, n)
	block := append([]reqKind(nil), serveBlock...)
	var reads []int // slots of the block that hold reads
	for i, k := range block {
		if k == readName || k == readExp {
			reads = append(reads, i)
		}
	}
	for len(out) < n {
		rng.Shuffle(len(reads), func(i, j int) {
			block[reads[i]], block[reads[j]] = block[reads[j]], block[reads[i]]
		})
		for _, k := range block {
			if len(out) == n {
				break
			}
			r := request{kind: k, due: time.Duration(float64(len(out)) / serveRate * float64(time.Second))}
			switch k {
			case readName:
				name := hot[nName%len(hot)]
				nName++
				r.path, r.body, r.golden = "/v1/experiments/scenario", nameBody(name), "scenario-"+name
			case readExp:
				name := exps[nExp%len(exps)]
				nExp++
				r.path, r.golden = "/v1/experiments/"+name, name
			case write:
				s := int64(rng.Intn(1_000_000_000)) + 1
				for used[s] || s == 1711 {
					s = int64(rng.Intn(1_000_000_000)) + 1
				}
				used[s] = true
				r.path, r.body, r.seed = "/v1/experiments/scenario", variantBody(s), s
			case stream:
				r.path, r.body, r.golden = "/v1/experiments/scenario/stream", nameBody(streamScenario), "scenario-"+streamScenario
			}
			out = append(out, r)
		}
	}
	return out
}

func nameBody(name string) string { return fmt.Sprintf(`{"scenario":{"name":%q}}`, name) }

// variantBody is diurnal-baseline with its workload seed replaced.
func variantBody(seed int64) string {
	src, err := scenario.NamedSource("diurnal-baseline")
	if err != nil {
		panic(err) // the corpus is embedded; only a bug removes an entry
	}
	lines := strings.Split(string(src), "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, "seed ") {
			lines[i] = fmt.Sprintf("seed %d", seed)
		}
	}
	b, _ := json.Marshal(map[string]map[string]string{"scenario": {"source": strings.Join(lines, "\n")}})
	return string(b)
}

// stack is one in-process ttsimd: the serving layer behind a loopback
// HTTP listener, with its journal in a fresh directory.
type stack struct {
	srv     *serve.Server
	http    *http.Server
	url     string
	dir     string
	served  chan error
	clients []*http.Client
}

// newStack boots ttsimd's default configuration with a journal under
// scratch and opens conns keep-alive clients.
func newStack(scratch string, conns int) (*stack, error) {
	dir, err := os.MkdirTemp(scratch, "serve-journal-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{
		MaxConcurrent: 2, QueueDepth: 8, CacheEntries: 64,
		PersistPath: filepath.Join(dir, "cache.journal"),
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("serve.New: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	st := &stack{srv: srv, http: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), dir: dir, served: make(chan error, 1)}
	go func() { st.served <- st.http.Serve(ln) }()
	for i := 0; i < conns; i++ {
		st.clients = append(st.clients, &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
		}})
	}
	return st, nil
}

// journal is the stack's journal file.
func (st *stack) journal() string { return filepath.Join(st.dir, "cache.journal") }

// close drains and stops the server, waits for the listener goroutine and
// removes the journal directory unless keep is set.
func (st *stack) close(keep bool) error {
	for _, c := range st.clients {
		c.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st.srv.Drain(ctx)
	err := st.http.Shutdown(ctx)
	if serr := <-st.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := st.srv.Close(); err == nil {
		err = cerr
	}
	if !keep {
		os.RemoveAll(st.dir)
	}
	return err
}

// reply is one answered request.
type reply struct {
	status int
	cache  string
	body   []byte
}

// do sends one request over client.
func (st *stack) do(client *http.Client, path, body string) (reply, error) {
	resp, err := client.Post(st.url+path, "application/json", strings.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, cache: resp.Header.Get("X-Cache"), body: b}, nil
}

// verify checks one reply against what its request must return.
func verify(r request, rep reply, goldens map[string][]byte) error {
	if rep.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", rep.status, bytes.TrimSpace(rep.body))
	}
	switch r.kind {
	case readName, readExp:
		if !bytes.Equal(rep.body, goldens[r.golden]) {
			return fmt.Errorf("body differs from golden %s", r.golden)
		}
	case stream:
		return verifyStream(rep.body, goldens[r.golden])
	case write:
		return verifyVariant(rep.body, r.seed)
	}
	return nil
}

// verifyStream checks that an NDJSON stream ends in exactly one result
// line whose result equals the golden's.
func verifyStream(body, golden []byte) error {
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, len(body)+1)
	var last []byte
	for sc.Scan() {
		last = sc.Bytes()
	}
	var line struct {
		Type   string
		Error  string
		Result any
	}
	if err := json.Unmarshal(last, &line); err != nil {
		return fmt.Errorf("stream's last line does not decode: %v", err)
	}
	if line.Type != "result" {
		return fmt.Errorf("stream ended with %q: %s", line.Type, line.Error)
	}
	if d := matchGolden(line.Result, golden); d != "" {
		return fmt.Errorf("streamed result differs from its golden: %s", d)
	}
	return nil
}

// verifyVariant checks a write's response: it answers for the submitted
// seed on the baseline fleet, and its physics are sane.
func verifyVariant(body []byte, seed int64) error {
	var env struct {
		Experiment string
		Result     struct {
			Canonical string
			Racks     int
			Epochs    int
			Wax       struct {
				PeakCoolingW  float64 `json:"peak_cooling_w"`
				PeakWaxLiquid float64 `json:"peak_wax_liquid"`
				AbsorbedJ     float64 `json:"absorbed_j"`
			}
			NoWax struct {
				PeakCoolingW float64 `json:"peak_cooling_w"`
			} `json:"nowax"`
		}
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return fmt.Errorf("write response does not decode: %v", err)
	}
	r := env.Result
	switch {
	case env.Experiment != "scenario" || !strings.Contains(r.Canonical, fmt.Sprintf("\nseed %d\n", seed)):
		return fmt.Errorf("write answered for another scenario")
	case r.Racks != 27 || r.Epochs != 576:
		return fmt.Errorf("write ran %d racks over %d epochs, want 27 over 576", r.Racks, r.Epochs)
	case !(r.Wax.PeakWaxLiquid >= 0 && r.Wax.PeakWaxLiquid <= 1):
		return fmt.Errorf("peak wax liquid fraction %g outside [0, 1]", r.Wax.PeakWaxLiquid)
	case !(r.Wax.AbsorbedJ > 0 && r.Wax.PeakCoolingW < r.NoWax.PeakCoolingW):
		return fmt.Errorf("the wax shaved nothing (absorbed %g J, peak %g W against bare %g W)", r.Wax.AbsorbedJ, r.Wax.PeakCoolingW, r.NoWax.PeakCoolingW)
	}
	return nil
}

// warm fills the cache with every key the reads repeat, checking each
// answer against its golden.
func (st *stack) warm(names []string, goldens map[string][]byte) error {
	var reqs []request
	for _, n := range names {
		reqs = append(reqs, request{kind: readName, path: "/v1/experiments/scenario", body: nameBody(n), golden: "scenario-" + n})
	}
	for _, e := range cheapExperiments {
		reqs = append(reqs, request{kind: readExp, path: "/v1/experiments/" + e, golden: e})
	}
	var next atomic.Int64
	errs := make([]error, len(st.clients))
	var wg sync.WaitGroup
	for c := range st.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(reqs); i = int(next.Add(1) - 1) {
				rep, err := st.do(st.clients[c], reqs[i].path, reqs[i].body)
				if err == nil {
					err = verify(reqs[i], rep, goldens)
				}
				if err != nil {
					errs[c] = fmt.Errorf("warm-up %s: %w", reqs[i].golden, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// sample is one request's measurement.
type sample struct {
	kind     reqKind
	latency  time.Duration // from due to answered
	late     time.Duration // from due to sent
	status   int
	cache    string
	problem  string // failed check of a 200 answer, "" when correct
	sendFail bool   // no answer at all
}

// openLoop sends the schedule over the stack's clients, one request in
// flight per client, each sent at its due time or as soon as a client
// frees up after it. t, when non-nil, records a span per request.
func (st *stack) openLoop(reqs []request, goldens map[string][]byte, t *tracer) []sample {
	out := make([]sample, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, client := range st.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(reqs); i = int(next.Add(1) - 1) {
				r := reqs[i]
				if wait := time.Until(start.Add(r.due)); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Since(start)
				_, end := t.start("serve.request/"+r.kind.String(), -1)
				rep, err := st.do(client, r.path, r.body)
				end()
				s := sample{kind: r.kind, latency: time.Since(start) - r.due, late: sent - r.due, status: rep.status, cache: rep.cache}
				if err != nil {
					s.sendFail = true
				} else if rep.status == http.StatusOK {
					if err := verify(r, rep, goldens); err != nil {
						s.problem = err.Error()
					}
				}
				out[i] = s
			}
		}()
	}
	wg.Wait()
	return out
}

// serveConns is the number of client connections: one per CPU, at most
// two.
func serveConns() int { return max(1, min(2, runtime.NumCPU())) }

func runServeMixed(o options) (*outcome, error) {
	out := &outcome{}
	c, err := loadCorpus(o.root)
	if err != nil {
		return nil, err
	}
	names := c.names
	if o.smoke {
		names = smokeScenarios
	}
	var st *stack
	for i := 0; i < 5; i++ {
		if st != nil {
			if err := st.close(false); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if st, err = newStack(o.scratch, serveConns()); err != nil {
			return nil, err
		}
		if err := st.warm(names, c.goldens); err != nil {
			st.close(false)
			return nil, err
		}
		out.setups = append(out.setups, time.Since(start).Seconds())
	}
	defer st.close(false)

	reqs := schedule(o.seed, int(o.seconds*serveRate), names)
	allocStart, cpuStart := totalAlloc(), cpuTime()
	samples := st.openLoop(reqs, c.goldens, nil)
	out.allocB, out.cpu = totalAlloc()-allocStart, cpuTime()-cpuStart
	stats := tally(samples, out)

	fmt.Fprintf(o.out, "serve-mixed: %d requests at %.0f/s over %d connections: %s\n",
		len(samples), serveRate, len(st.clients), stats.mix)
	fmt.Fprintf(o.out, "serve_p50_ms %.3f ms (n=%d)\n", percentile(out.ops, 50), len(out.ops))
	// serve_p99_ms follows the usual rule: p99 when ten samples lie beyond
	// it, else the highest percentile that has ten beyond it.
	p := min(99, 100*(1-10/float64(max(len(out.ops), 10))))
	fmt.Fprintf(o.out, "serve_p99_ms %.3f ms (p%.1f of %d)\n", percentile(out.ops, p), p, len(out.ops))
	fmt.Fprintf(o.out, "serve_slo_frac %.4f fraction (limit %v)\n", float64(out.inLimit)/float64(max(out.attempted, 1)), serveLimit)
	fmt.Fprintf(o.out, "loadgen.late_ms_p99 %.3f ms, hit ratio %.3f, shed %.4f\n", stats.lateP99, stats.hitRatio, stats.shedFrac)
	return out, nil
}

// loopStats summarizes one open loop beyond the end-to-end metrics.
type loopStats struct {
	mix                         string
	lateP99, hitRatio, shedFrac float64
}

// tally folds samples into out and returns the loop's own figures.
func tally(samples []sample, out *outcome) loopStats {
	var late []float64
	var ok200, hits, shed int
	byKind := map[reqKind][]float64{}
	for _, s := range samples {
		out.attempted++
		late = append(late, ms(s.late))
		if s.sendFail || s.status != http.StatusOK {
			out.failed++
			if s.status == http.StatusTooManyRequests || s.status == http.StatusServiceUnavailable {
				shed++
			}
			continue
		}
		ok200++
		if s.cache == "hit" {
			hits++
		}
		if s.problem != "" {
			out.check(false, "%s request: %s", s.kind, s.problem)
			continue
		}
		out.ops = append(out.ops, ms(s.latency))
		byKind[s.kind] = append(byKind[s.kind], ms(s.latency))
		if s.latency <= serveLimit {
			out.inLimit++
		}
	}
	var mix []string
	for k := readName; k <= stream; k++ {
		mix = append(mix, fmt.Sprintf("%d %s (p50 %.1f ms)", len(byKind[k]), k, median(byKind[k])))
	}
	return loopStats{
		mix:      strings.Join(mix, ", "),
		lateP99:  percentile(late, 99),
		hitRatio: float64(hits) / float64(max(ok200, 1)),
		shedFrac: float64(shed) / float64(max(len(samples), 1)),
	}
}

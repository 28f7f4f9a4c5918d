package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/autoscale"
	"repro/internal/dcsim"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/pcm"
	"repro/internal/persist"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/server"
	"repro/internal/workload"
)

// The traced run: every layer's public functions timed from this file,
// around the calls into each layer, plus trace.overhead for the workload
// the run names. Each layer metric is listed with the end-to-end metric
// and workload it should move:
//
//	pcm.flat_solve_ns.{solid,mushy,liquid}, pcm.exchange_ns
//	                      -> op_p50_ms on fleet-warehouse (small on studies)
//	fleet.new_ms          -> setup_s on fleet-warehouse
//	fleet.epoch_us, fleet.balance_us, fleet.speedup (read beside
//	host.raw_scaling)     -> op_p50_ms on fleet-warehouse
//	fleet.observe_ratio   -> op_tail_ms on serve-mixed, through streams
//	autoscale.control_us  -> op_p50_ms on studies
//	scenario.parse_ms, workload.build_ms
//	                      -> op_p50_ms on serve-mixed and studies
//	server.derive_rom_ms.<class>
//	                      -> op_p50_ms on studies, setup_s on fleet-warehouse
//	thermal.step_ns, dcsim.cooling_load_ms, core.study_ms.<experiment>
//	                      -> op_p50_ms on studies
//	serve.parse_request_us.*, serve.handler_ms.*
//	                      -> op_p50_ms and op_tail_ms on serve-mixed
//	serve.hit_ratio, serve.shed_frac
//	                      -> slo_frac on serve-mixed
//	persist.append_us, persist.open_ms
//	                      -> op_tail_ms and setup_s on serve-mixed
//
// Only one run attaches an obs.Registry to a fleet: the observed half of
// fleet.observe_ratio.

// layerSink keeps timed results alive so the compiler cannot drop a call.
var layerSink float64

// perCall times fn repeatedly for at least budget and returns the mean
// nanoseconds per call.
func perCall(budget time.Duration, fn func()) float64 {
	calls := 0
	start := time.Now()
	for calls == 0 || time.Since(start) < budget {
		fn()
		calls++
	}
	return float64(time.Since(start)) / float64(calls)
}

// medianMS runs fn reps times and returns the median milliseconds.
func medianMS(reps int, fn func() error) (float64, error) {
	var xs []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		xs = append(xs, ms(time.Since(start)))
	}
	return median(xs), nil
}

// overhead runs op traced and untraced pairs times each, alternating which
// goes first, and returns the ratio of the traced median to the untraced
// one: the cost of recording spans for this workload's operation.
func overhead(pairs int, op func(traced bool) (time.Duration, error)) (float64, error) {
	var on, off []float64
	for i := 0; i < pairs; i++ {
		for _, traced := range []bool{i%2 == 0, i%2 != 0} {
			d, err := op(traced)
			if err != nil {
				return 0, err
			}
			if traced {
				on = append(on, float64(d))
			} else {
				off = append(off, float64(d))
			}
		}
	}
	return median(on) / median(off), nil
}

// layerRun carries the traced run's metrics and failed checks.
type layerRun struct {
	o       options
	t       *tracer
	corpus  *corpus
	metrics map[string]metric
	budget  time.Duration // per micro-measurement
	checks
}

func (l *layerRun) put(name string, v float64, unit string) { l.metrics[name] = metric{v, unit} }

func runLayers(name string, o options) (*result, error) {
	l := &layerRun{o: o, t: newTracer(), metrics: map[string]metric{}, budget: 200 * time.Millisecond}
	if o.smoke {
		l.budget = 5 * time.Millisecond
	}
	var err error
	if l.corpus, err = loadCorpus(o.root); err != nil {
		return nil, err
	}
	l.put("host.raw_scaling", o.rawScaling, "x")
	for _, step := range []func() error{
		l.pcmLayer, l.serverLayer, l.dcsimLayer, l.scenarioLayer,
		func() error { return l.fleetLayer(name) },
		l.observeLayer, l.autoscaleLayer,
		func() error { return l.coreLayer(name) },
		l.serveLayer,
		func() error { return l.serveLoop(name) },
	} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	for _, p := range l.problems {
		fmt.Fprintln(o.out, "CHECK FAILED:", p)
	}
	spans := filepath.Join(o.scratch, fmt.Sprintf("spans-%s-%d.json", name, o.seed))
	if err := l.t.write(spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(o.out, "%d spans written to %s\n", len(l.t.spans), spans)
	return &result{Correct: len(l.problems) == 0, Attempted: 1, Failed: 0, Metrics: l.metrics}, nil
}

// flatSample is one wax state as a struct-of-arrays driver holds it, with
// the air it sees next.
type flatSample struct {
	enc                     *pcm.Enclosure
	refC, mass, shell, enth float64
	airC, hA                float64
}

// pcmLayer times FlatSolve per phase and FlatExchangeWithAir over each
// wax class's enclosure, with states drawn from a State driven along the
// two-day trace at the class's wake temperature. A phase the trace never
// reaches is filled with equilibrium states past the melt range.
func (l *layerRun) pcmLayer() error {
	rng := rand.New(rand.NewSource(l.o.seed))
	tr := workload.GoogleTwoDay()
	phases := map[string][]flatSample{}
	for _, cfg := range []*server.Config{server.OneU(), server.TwoU(), server.OpenCompute()} {
		rom, err := server.DeriveROM(cfg, cfg.Wax.DefaultMeltC)
		if err != nil {
			return err
		}
		st, err := rom.NewWaxState()
		if err != nil {
			return err
		}
		byPhase := map[string][]flatSample{}
		add := func(air float64) {
			h, ref, mass, shell := st.Flat()
			s := flatSample{enc: rom.Enclosure, refC: ref, mass: mass, shell: shell, enth: h, airC: air, hA: rom.HA}
			ph := "mushy"
			switch f := st.LiquidFraction(); {
			case f <= 0:
				ph = "solid"
			case f >= 1:
				ph = "liquid"
			}
			byPhase[ph] = append(byPhase[ph], s)
		}
		for _, u := range tr.Total.Values {
			air := rom.WakeAirC(u, 1)
			add(air)
			st.ExchangeWithAir(air, rom.HA, tr.Total.Step)
		}
		melt := rom.MeltingPointC()
		for ph, tC := range map[string]float64{"solid": melt - 15, "liquid": melt + 15} {
			for len(byPhase[ph]) < 8 {
				st.Reset(tC + rng.Float64())
				add(tC)
			}
		}
		for ph, xs := range byPhase {
			rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
			phases[ph] = append(phases[ph], xs[:min(len(xs), 64)]...)
		}
	}
	for _, ph := range []string{"solid", "mushy", "liquid"} {
		xs := phases[ph]
		if len(xs) == 0 {
			return fmt.Errorf("no %s wax states", ph)
		}
		_, end := l.t.start("pcm.FlatSolve/"+ph, -1)
		ns := perCall(l.budget, func() {
			for _, s := range xs {
				t, f := pcm.FlatSolve(s.enc, s.refC, s.mass, s.shell, s.enth)
				layerSink += t + f
			}
		})
		end()
		l.put("pcm.flat_solve_ns."+ph, ns/float64(len(xs)), "ns")
	}
	var all []flatSample
	for _, xs := range phases {
		all = append(all, xs...)
	}
	_, end := l.t.start("pcm.FlatExchangeWithAir", -1)
	ns := perCall(l.budget, func() {
		for _, s := range all {
			h := s.enth
			layerSink += pcm.FlatExchangeWithAir(s.enc, s.refC, s.mass, s.shell, &h, s.airC, s.hA, tr.Total.Step)
		}
	})
	end()
	l.put("pcm.exchange_ns", ns/float64(len(all)), "ns")
	return nil
}

// serverLayer times ROM derivation per class and the 2U wax server's
// thermal-network step.
func (l *layerRun) serverLayer() error {
	for tag, cfgFn := range map[string]func() *server.Config{"1U": server.OneU, "2U": server.TwoU, "OCP": server.OpenCompute} {
		cfg := cfgFn()
		_, end := l.t.start("server.DeriveROM/"+tag, -1)
		v, err := medianMS(5, func() error { _, err := server.DeriveROM(cfg, cfg.Wax.DefaultMeltC); return err })
		end()
		if err != nil {
			return err
		}
		l.put("server.derive_rom_ms."+tag, v, "ms")
	}
	b, err := server.BuildModel(server.TwoU(), server.BuildOptions{WithWax: true})
	if err != nil {
		return err
	}
	_, end := l.t.start("thermal.Model.Step", -1)
	l.put("thermal.step_ns", perCall(l.budget, func() { b.Model.Step(5) }), "ns")
	end()
	return nil
}

// dcsimLayer times the fluid engine's two-day cooling-load run of a 2U
// wax cluster.
func (l *layerRun) dcsimLayer() error {
	cfg := server.TwoU()
	cl, err := dcsim.NewCluster(cfg, cfg.Wax.DefaultMeltC)
	if err != nil {
		return err
	}
	tr := workload.GoogleTwoDay()
	_, end := l.t.start("dcsim.Cluster.RunCoolingLoad", -1)
	v, err := medianMS(3, func() error {
		r, err := cl.RunCoolingLoad(tr, true)
		if err == nil {
			l.check(r.AbsorbedJ > 0, "dcsim: the 2U wax cluster absorbed no heat")
		}
		return err
	})
	end()
	if err != nil {
		return err
	}
	l.put("dcsim.cooling_load_ms", v, "ms")
	return nil
}

// scenarioLayer times Parse plus Validate and GenSpec.Build per corpus
// entry (mean over the corpus of each entry's median).
func (l *layerRun) scenarioLayer() error {
	var parse, build float64
	names := scenario.Names()
	for _, n := range names {
		src, err := scenario.NamedSource(n)
		if err != nil {
			return err
		}
		var sc *scenario.Spec
		_, end := l.t.start("scenario.Parse/"+n, -1)
		v, err := medianMS(3, func() error {
			if sc, err = scenario.Parse(bytes.NewReader(src)); err != nil {
				return err
			}
			return sc.Validate()
		})
		end()
		if err != nil {
			return fmt.Errorf("scenario %s: %w", n, err)
		}
		parse += v
		_, end = l.t.start("workload.GenSpec.Build/"+n, -1)
		v, err = medianMS(3, func() error { _, err := sc.Gen.Build(); return err })
		end()
		if err != nil {
			return fmt.Errorf("scenario %s: %w", n, err)
		}
		build += v
	}
	l.put("scenario.parse_ms", parse/float64(len(names)), "ms")
	l.put("workload.build_ms", build/float64(len(names)), "ms")
	return nil
}

// fleetLayer times fleet.New and Fleet.Run on the fleet-warehouse floor
// at Workers = nproc and Workers = 1, the balancer through a timing
// wrapper. On fleet-warehouse it also times wrapped runs against
// unwrapped ones for trace.overhead.
func (l *layerRun) fleetLayer(workload string) error {
	w, err := newWarehouse(l.o.smoke, runtime.NumCPU(), nil)
	if err != nil {
		return err
	}
	_, end := l.t.start("fleet.New", -1)
	v, err := medianMS(3, func() error { _, err := w.build(runtime.NumCPU(), nil); return err })
	end()
	if err != nil {
		return err
	}
	l.put("fleet.new_ms", v, "ms")

	timedRun := func(workers int) (time.Duration, uint64, *timedPolicy, error) {
		pol := &timedPolicy{inner: fleet.ThermalAware{}}
		f, err := w.build(workers, pol)
		if err != nil {
			return 0, 0, nil, err
		}
		_, end := l.t.start(fmt.Sprintf("fleet.Run/workers=%d", workers), -1)
		start := time.Now()
		r, err := f.Run(w.trace)
		took := time.Since(start)
		end()
		if err != nil {
			return 0, 0, nil, err
		}
		for _, p := range checkRun(r) {
			l.check(false, "fleet workers=%d: %s", workers, p)
		}
		return took, runDigest(r), pol, nil
	}
	tN, dN, pol, err := timedRun(runtime.NumCPU())
	if err != nil {
		return err
	}
	t1, d1, _, err := timedRun(1)
	if err != nil {
		return err
	}
	l.check(dN == d1, "fleet: Workers=%d digest %016x differs from Workers=1 digest %016x", runtime.NumCPU(), dN, d1)
	epochs := float64(w.trace.Total.Len())
	l.put("fleet.epoch_us", float64(tN)/float64(time.Microsecond)/epochs, "us")
	l.put("fleet.speedup", float64(t1)/float64(tN), "x")
	l.put("fleet.balance_us", perCallUS(pol.busy, pol.calls), "us")
	l.check(pol.calls == w.trace.Total.Len(), "fleet: balancer called %d times over %d epochs", pol.calls, w.trace.Total.Len())

	if workload == "fleet-warehouse" {
		v, err := overhead(2, func(traced bool) (time.Duration, error) {
			if traced {
				took, d, _, err := timedRun(runtime.NumCPU())
				l.check(d == dN, "fleet: a traced rerun's digest differs")
				return took, err
			}
			start := time.Now()
			r, err := w.fleet.Run(w.trace)
			if err == nil {
				l.check(runDigest(r) == dN, "fleet: the unwrapped run's digest differs from the wrapped run's")
			}
			return time.Since(start), err
		})
		if err != nil {
			return err
		}
		l.put("trace.overhead", v, "x")
	}
	return nil
}

// specFleet assembles a corpus scenario's wax fleet the way the scenario
// study does, with the given balancer and scaler.
func specFleet(sc *scenario.Spec, pol fleet.Policy, scaler fleet.Scaler, reg *obs.Registry) (*fleet.Fleet, error) {
	tags := map[string]func() *server.Config{"1U": server.OneU, "2U": server.TwoU, "OCP": server.OpenCompute}
	var classes []fleet.ClassSpec
	roms := map[string]*server.ROM{}
	for _, m := range sc.Mix {
		cfgFn, ok := tags[m.Tag]
		if !ok {
			return nil, fmt.Errorf("unknown class tag %q", m.Tag)
		}
		cfg := cfgFn()
		cs := fleet.ClassSpec{Cfg: cfg, Racks: m.Racks, WithWax: !m.NoWax}
		if !m.NoWax {
			if roms[m.Tag] == nil {
				rom, err := server.DeriveROM(cfg, cfg.Wax.DefaultMeltC)
				if err != nil {
					return nil, err
				}
				roms[m.Tag] = rom
			}
			cs.ROM = roms[m.Tag]
		}
		classes = append(classes, cs)
	}
	return fleet.New(fleet.Config{Classes: classes, Policy: pol, Faults: sc.Faults, Scaler: scaler, Obs: reg})
}

// observeLayer compares a diurnal-baseline run with an obs.Registry
// attached against the same run without one.
func (l *layerRun) observeLayer() error {
	sc, err := scenario.Named("diurnal-baseline")
	if err != nil {
		return err
	}
	tr, err := sc.Gen.Build()
	if err != nil {
		return err
	}
	pol, err := fleet.ParsePolicy(sc.Balance)
	if err != nil {
		return err
	}
	var plain, observed []float64
	var digests [2]uint64
	for i := 0; i < 5; i++ {
		for k, reg := range []*obs.Registry{nil, obs.New()} {
			f, err := specFleet(sc, pol, nil, reg)
			if err != nil {
				return err
			}
			start := time.Now()
			r, err := f.Run(tr)
			if err != nil {
				return err
			}
			took := ms(time.Since(start))
			if k == 0 {
				plain = append(plain, took)
			} else {
				observed = append(observed, took)
			}
			digests[k] = runDigest(r)
		}
	}
	l.check(digests[0] == digests[1], "fleet: the observed diurnal-baseline run differs from the unobserved one")
	l.put("fleet.observe_ratio", median(observed)/median(plain), "x")
	return nil
}

// autoscaleLayer times the controller's Control per epoch through a
// timing wrapper on every corpus scenario that closes the loop, checking
// the wrapped run against the scenario's golden wax run.
func (l *layerRun) autoscaleLayer() error {
	c := l.corpus
	var busy time.Duration
	calls := 0
	for _, n := range c.names {
		sc, err := scenario.Named(n)
		if err != nil {
			return err
		}
		if sc.Autoscale == "" {
			continue
		}
		tr, err := sc.Gen.Build()
		if err != nil {
			return err
		}
		pol, err := fleet.ParsePolicy(sc.Balance)
		if err != nil {
			return err
		}
		dp, err := autoscale.ParsePolicy(sc.Autoscale)
		if err != nil {
			return err
		}
		scaler := &timedScaler{inner: autoscale.New(autoscale.Config{Policy: dp})}
		f, err := specFleet(sc, pol, scaler, nil)
		if err != nil {
			return err
		}
		_, end := l.t.start("fleet.Run/autoscale/"+n, -1)
		r, err := f.Run(tr)
		end()
		if err != nil {
			return err
		}
		busy += scaler.busy
		calls += scaler.calls
		peak, _ := r.CoolingLoadW.Peak()
		got := map[string]float64{"peak_cooling_w": peak, "absorbed_j": r.AbsorbedJ, "throttled_server_seconds": r.ThrottledServerSeconds}
		if d := waxMismatch(c.goldens["scenario-"+n], got); d != "" {
			l.check(false, "autoscale %s: %s", n, d)
		}
	}
	l.check(calls > 0, "the corpus has no closed-loop scenario")
	l.put("autoscale.control_us", perCallUS(busy, calls), "us")
	return nil
}

// waxMismatch compares a wax run's headline numbers against the wax run
// pinned in a scenario golden; it returns the first difference, or "".
func waxMismatch(golden []byte, got map[string]float64) string {
	var env struct{ Result struct{ Wax map[string]any } }
	if err := json.Unmarshal(golden, &env); err != nil {
		return "golden does not decode: " + err.Error()
	}
	for k, v := range got {
		if d := diffJSON("wax."+k, env.Result.Wax[k], v); d != "" {
			return d
		}
	}
	return ""
}

// coreLayer runs one study pass with a span and a timing per experiment
// and per scenario. On studies it also times traced passes against
// untraced ones for trace.overhead.
func (l *layerRun) coreLayer(workload string) error {
	c := l.corpus
	names := c.names
	if l.o.smoke {
		names = smokeScenarios
	}
	timings := map[string]float64{}
	ctx := context.Background()
	_, bad, err := studyPass(ctx, c, names, l.t, timings)
	if err != nil {
		return err
	}
	for _, p := range bad {
		l.check(false, "studies: %s", p)
	}
	for _, e := range experimentOrder {
		l.put("core.study_ms."+e, timings[e], "ms")
	}
	for _, n := range c.names {
		l.put("core.study_ms.scenario."+n, timings["scenario."+n], "ms")
	}
	if workload == "studies" {
		v, err := overhead(2, func(traced bool) (time.Duration, error) {
			t := l.t
			if !traced {
				t = nil
			}
			took, _, err := studyPass(ctx, c, names, t, nil)
			return took, err
		})
		if err != nil {
			return err
		}
		l.put("trace.overhead", v, "x")
	}
	return nil
}

// serveLayer times request canonicalization, the handler without a
// network, and journal appends.
func (l *layerRun) serveLayer() error {
	known := map[string]bool{}
	for _, n := range serve.ExperimentOrder {
		known[n] = true
	}
	isKnown := func(n string) bool { return known[n] }
	rng := rand.New(rand.NewSource(l.o.seed))
	inline := variantBody(int64(rng.Intn(1_000_000)) + 2000)
	for _, c := range []struct{ label, exp, body string }{
		{"hit", "scenario", nameBody("diurnal-baseline")},
		{"inline", "scenario", inline},
		{"table2", "table2", ""},
	} {
		if _, err := serve.ParseRequest(c.exp, []byte(c.body), isKnown); err != nil {
			return fmt.Errorf("ParseRequest %s: %w", c.label, err)
		}
		_, end := l.t.start("serve.ParseRequest/"+c.label, -1)
		ns := perCall(l.budget, func() { serve.ParseRequest(c.exp, []byte(c.body), isKnown) })
		end()
		l.put("serve.parse_request_us."+c.label, ns/1e3, "us")
	}

	dir, err := os.MkdirTemp(l.o.scratch, "serve-handler-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	srv, err := serve.New(serve.Config{MaxConcurrent: 2, QueueDepth: 8, CacheEntries: 64, PersistPath: filepath.Join(dir, "cache.journal")})
	if err != nil {
		return err
	}
	defer srv.Close()
	h := srv.Handler()
	c := l.corpus
	call := func(path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rec
	}
	hitReq := request{kind: readName, path: "/v1/experiments/scenario", body: nameBody("diurnal-baseline"), golden: "scenario-diurnal-baseline"}
	warm := call(hitReq.path, hitReq.body)
	if err := verify(hitReq, reply{status: warm.Code, body: warm.Body.Bytes()}, c.goldens); err != nil {
		return fmt.Errorf("handler warm-up: %w", err)
	}
	seeds := rng.Perm(1_000_000)
	for _, m := range []struct {
		label string
		reps  int
		req   func(i int) request
	}{
		{"hit", 20, func(int) request { return hitReq }},
		{"miss", 5, func(i int) request {
			s := int64(seeds[i]) + 2000
			return request{kind: write, path: "/v1/experiments/scenario", body: variantBody(s), seed: s}
		}},
		{"stream", 3, func(int) request {
			return request{kind: stream, path: "/v1/experiments/scenario/stream", body: hitReq.body, golden: hitReq.golden}
		}},
	} {
		var xs []float64
		for i := 0; i < m.reps; i++ {
			r := m.req(i)
			_, end := l.t.start("serve.Handler/"+m.label, -1)
			start := time.Now()
			rec := call(r.path, r.body)
			xs = append(xs, ms(time.Since(start)))
			end()
			if err := verify(r, reply{status: rec.Code, body: rec.Body.Bytes()}, c.goldens); err != nil {
				l.check(false, "handler %s: %v", m.label, err)
			}
			if want := map[string]string{"hit": "hit", "miss": "miss"}[m.label]; want != "" && rec.Header().Get("X-Cache") != want {
				l.check(false, "handler %s answered X-Cache %q", m.label, rec.Header().Get("X-Cache"))
			}
		}
		l.put("serve.handler_ms."+m.label, median(xs), "ms")
	}

	j, _, _, err := persist.Open(filepath.Join(dir, "append.journal"))
	if err != nil {
		return err
	}
	body := c.goldens["scenario-diurnal-baseline"]
	var xs []float64
	for i := 0; i < 20; i++ {
		_, end := l.t.start("persist.Journal.Append", -1)
		start := time.Now()
		err := j.Append(fmt.Sprintf("key-%d", i), body)
		xs = append(xs, float64(time.Since(start))/float64(time.Microsecond))
		end()
		if err != nil {
			j.Close()
			return err
		}
	}
	if err := j.Close(); err != nil {
		return err
	}
	l.put("persist.append_us", median(xs), "us")
	return nil
}

// serveLoop runs the serve-mixed open loop with a span per request (for
// the whole run on serve-mixed, a short one otherwise), then replays the
// journal it left. On serve-mixed it also times bursts of cache hits
// with and without spans for trace.overhead.
func (l *layerRun) serveLoop(workload string) error {
	c := l.corpus
	names := c.names
	if l.o.smoke {
		names = smokeScenarios
	}
	seconds := l.o.seconds
	if workload != "serve-mixed" {
		seconds = min(seconds, 5)
	}
	st, err := newStack(l.o.scratch, serveConns())
	if err != nil {
		return err
	}
	if err := st.warm(names, c.goldens); err != nil {
		st.close(false)
		return err
	}
	samples := st.openLoop(schedule(l.o.seed, int(seconds*serveRate), names), c.goldens, l.t)
	var out outcome
	stats := tally(samples, &out)
	for _, p := range out.problems {
		l.check(false, "serve loop: %s", p)
	}
	l.check(out.failed == 0, "serve loop: %d of %d requests failed", out.failed, out.attempted)
	l.put("serve.hit_ratio", stats.hitRatio, "fraction")
	l.put("serve.shed_frac", stats.shedFrac, "fraction")
	l.put("loadgen.late_ms_p99", stats.lateP99, "ms")

	if workload == "serve-mixed" {
		hit := request{kind: readName, path: "/v1/experiments/scenario", body: nameBody(names[0]), golden: "scenario-" + names[0]}
		v, err := overhead(3, func(traced bool) (time.Duration, error) {
			t := l.t
			if !traced {
				t = nil
			}
			start := time.Now()
			for i := 0; i < 200; i++ {
				_, end := t.start("serve.request/burst", -1)
				rep, err := st.do(st.clients[0], hit.path, hit.body)
				end()
				if err == nil {
					err = verify(hit, rep, c.goldens)
				}
				if err != nil {
					return 0, err
				}
			}
			return time.Since(start), nil
		})
		if err != nil {
			st.close(false)
			return err
		}
		l.put("trace.overhead", v, "x")
	}

	if err := st.close(true); err != nil {
		return err
	}
	defer os.RemoveAll(st.dir)
	_, end := l.t.start("persist.Open", -1)
	v, err := medianMS(3, func() error {
		j, entries, _, err := persist.Open(st.journal())
		if err != nil {
			return err
		}
		l.check(len(entries) > 0, "persist: the serve loop's journal replayed no entries")
		return j.Close()
	})
	end()
	if err != nil {
		return err
	}
	l.put("persist.open_ms", v, "ms")
	return nil
}

package dcsim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/numeric"
	"repro/internal/obs"
	"repro/internal/timeseries"
	"repro/internal/workload"
)

// The event engine: the faithful reproduction of DCSim's discrete core.
// Jobs arrive from a time-varying Poisson process whose intensity tracks
// the utilization trace, a round-robin load balancer spreads them over the
// servers, each server runs up to its thread count concurrently and queues
// a bounded backlog, and completions free capacity.

// LoadBalancer selects the event engine's job placement policy.
type LoadBalancer int

const (
	// RoundRobin is the paper's policy.
	RoundRobin LoadBalancer = iota
	// LeastLoaded places each job on the server with the smallest
	// busy+backlog count (an ablation against the paper's choice).
	LeastLoaded
)

// EventOptions configures the event engine.
type EventOptions struct {
	// Servers is the simulated population (rack scale: the cluster result
	// is extrapolated).
	Servers int
	// ServersPerRack groups servers for the rack-level report (DCSim
	// models "the server, rack, and cluster levels").
	ServersPerRack int
	// Balancer is the placement policy (default RoundRobin).
	Balancer LoadBalancer
	// ThreadsPerServer is the concurrent job capacity of one server.
	ThreadsPerServer int
	// MeanServiceS is the mean job service time in seconds; per-class
	// means are scaled around it (search jobs are short, MapReduce long).
	MeanServiceS float64
	// QueueDepthPerThread bounds each server's backlog; beyond it jobs are
	// dropped (and counted).
	QueueDepthPerThread int
	// Seed drives all randomness.
	Seed int64
	// SampleEveryS is the utilization sampling interval.
	SampleEveryS float64
	// Obs is the optional telemetry registry: the run is timed as a span
	// (with arrival-generation and drain batches as children) and job
	// counts are recorded. Nil disables instrumentation.
	Obs *obs.Registry
}

// DefaultEventOptions returns a rack-scale configuration: 40 servers of 12
// threads, 30 s mean service time.
func DefaultEventOptions() EventOptions {
	return EventOptions{
		Servers:             40,
		ServersPerRack:      20,
		ThreadsPerServer:    12,
		MeanServiceS:        30,
		QueueDepthPerThread: 4,
		Seed:                7,
		SampleEveryS:        300,
	}
}

// serviceScale is each class's service time relative to the mean: searches
// are interactive, MapReduce tasks are long batch slices.
func serviceScale(j workload.JobType) float64 {
	switch j {
	case workload.Search:
		return 0.5
	case workload.Orkut:
		return 1.0
	case workload.MapReduce:
		return 2.5
	default:
		return 1.0
	}
}

// event is a queue entry: either a job arrival or a completion on a
// server.
type event struct {
	at        float64
	kind      int // 0 arrival, 1 completion
	jobType   workload.JobType
	serviceS  float64
	serverIdx int
	// arrivedAt carries the original arrival time through queueing so
	// completions can report sojourn times.
	arrivedAt float64
}

// eventQueue is a binary min-heap of events ordered by time. push and pop
// make container/heap's sift decisions (the same comparisons in the same
// order) but move a hole instead of swapping, and hold events unboxed, so
// events with equal times pop in exactly the order container/heap would
// give them; heap_test.go checks this against container/heap.
type eventQueue []event

// push adds e, sifting it up from the last leaf.
func (q *eventQueue) push(e event) {
	*q = append(*q, e)
	h := *q
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !(e.at < h[i].at) {
			break
		}
		h[j] = h[i]
		j = i
	}
	h[j] = e
}

// pop removes and returns the earliest event: the last leaf takes the
// root's place and sifts down. The queue must not be empty.
func (q *eventQueue) pop() event {
	h := *q
	n := len(h) - 1
	root, x := h[0], h[n]
	i := 0
	for {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].at < h[j].at {
			j = j2 // right child
		}
		if !(h[j].at < x.at) {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = x
	*q = h[:n]
	return root
}

// serverSim is one machine's queueing state.
type serverSim struct {
	busy       int
	backlog    []event
	busyTimeS  float64 // integrated thread-seconds
	lastChange float64
}

func (s *serverSim) accumulate(now float64) {
	s.busyTimeS += float64(s.busy) * (now - s.lastChange)
	s.lastChange = now
}

// EventResult summarizes an event-engine run.
type EventResult struct {
	// Utilization is the cluster thread utilization sampled over time.
	Utilization *timeseries.Series
	// UtilPerServer is each server's time-averaged utilization.
	UtilPerServer []float64
	// UtilPerRack aggregates servers into racks of ServersPerRack.
	UtilPerRack []float64
	// Completed, Dropped count jobs.
	Completed, Dropped int
	// CompletedByType breaks completions down per class.
	CompletedByType map[workload.JobType]int
	// SojournP50S, SojournP95S and SojournP99S are latency percentiles of
	// completed jobs (queueing plus service), normalized by each job's
	// own service time — 1.0 means no queueing at all. Tail latency is
	// the datacenter metric power/thermal management trades against
	// (Kanev et al., the paper's reference [13]).
	SojournP50S, SojournP95S, SojournP99S float64
}

// RunEvents executes the discrete-event simulation of the trace over a
// group of servers with round-robin load balancing.
func RunEvents(tr *workload.Trace, opts EventOptions) (*EventResult, error) {
	if tr == nil || tr.Total.Len() == 0 {
		return nil, errors.New("dcsim: empty trace")
	}
	if opts.Servers <= 0 || opts.ThreadsPerServer <= 0 {
		return nil, fmt.Errorf("dcsim: need positive servers and threads, got %d x %d", opts.Servers, opts.ThreadsPerServer)
	}
	if opts.MeanServiceS <= 0 {
		return nil, fmt.Errorf("dcsim: non-positive mean service time %v", opts.MeanServiceS)
	}
	if opts.QueueDepthPerThread < 0 {
		return nil, fmt.Errorf("dcsim: negative queue depth")
	}
	if opts.SampleEveryS <= 0 {
		opts.SampleEveryS = 300
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	servers := make([]serverSim, opts.Servers)
	totalThreads := float64(opts.Servers * opts.ThreadsPerServer)
	maxBacklog := opts.QueueDepthPerThread * opts.ThreadsPerServer

	sp := opts.Obs.StartSpan("dcsim.events")
	sp.AddSimTime(tr.Total.End() - tr.Total.Start)
	defer sp.End()

	// Pre-generate arrivals: within each trace step the Poisson intensity
	// is constant at lambda = u * totalThreads / meanService, so the count
	// is Poisson(lambda*dt) with uniform placement. Class membership
	// follows the per-class share at that step.
	gen := sp.Child("generate")
	var q eventQueue
	for i := 0; i < tr.Total.Len(); i++ {
		u := tr.Total.Values[i]
		dt := tr.Total.Step
		t0 := tr.Total.TimeAt(i)
		lambda := u * totalThreads / opts.MeanServiceS
		count := poisson(rng, lambda*dt)
		for k := 0; k < count; k++ {
			at := t0 + rng.Float64()*dt
			jt := pickClass(rng, tr, i)
			svc := rng.ExpFloat64() * opts.MeanServiceS * serviceScale(jt) / meanScale(tr, i)
			q.push(event{at: at, kind: 0, jobType: jt, serviceS: svc, arrivedAt: at})
		}
	}
	opts.Obs.Counter("dcsim.jobs_generated").Add(int64(len(q)))
	gen.End()

	res := &EventResult{CompletedByType: make(map[workload.JobType]int)}
	horizon := tr.Total.End()
	nSamples := int(horizon/opts.SampleEveryS) + 1
	util, err := timeseries.New(tr.Total.Start, opts.SampleEveryS, nSamples)
	if err != nil {
		return nil, err
	}

	rr := 0
	pick := func() int {
		switch opts.Balancer {
		case LeastLoaded:
			// Rotate the scan start so ties don't pile work onto low
			// indices (the classic naive-least-loaded bias).
			startAt := rr
			rr = (rr + 1) % opts.Servers
			best, load := startAt, int(^uint(0)>>1)
			for k := 0; k < opts.Servers; k++ {
				i := (startAt + k) % opts.Servers
				if l := servers[i].busy + len(servers[i].backlog); l < load {
					best, load = i, l
				}
			}
			return best
		default:
			idx := rr
			rr = (rr + 1) % opts.Servers
			return idx
		}
	}
	nextSample := tr.Total.Start
	sampleIdx := 0
	busyTotal := 0
	record := func(now float64) {
		for sampleIdx < nSamples && nextSample <= now {
			util.Values[sampleIdx] = float64(busyTotal) / totalThreads
			sampleIdx++
			nextSample += opts.SampleEveryS
		}
	}

	var slowdowns []float64
	start := func(idx int, e event, now float64) {
		servers[idx].accumulate(now)
		servers[idx].busy++
		busyTotal++
		q.push(event{
			at: now + e.serviceS, kind: 1, serverIdx: idx,
			jobType: e.jobType, serviceS: e.serviceS, arrivedAt: e.arrivedAt,
		})
	}

	drain := sp.Child("drain")
	for len(q) > 0 {
		e := q.pop()
		if e.at > horizon {
			break
		}
		record(e.at)
		switch e.kind {
		case 0: // arrival: load-balancer assignment
			idx := pick()
			s := &servers[idx]
			if s.busy < opts.ThreadsPerServer {
				start(idx, e, e.at)
			} else if len(s.backlog) < maxBacklog {
				s.backlog = append(s.backlog, e)
			} else {
				res.Dropped++
			}
		case 1: // completion
			s := &servers[e.serverIdx]
			s.accumulate(e.at)
			s.busy--
			busyTotal--
			res.Completed++
			res.CompletedByType[e.jobType]++
			if e.serviceS > 0 {
				slowdowns = append(slowdowns, (e.at-e.arrivedAt)/e.serviceS)
			}
			if len(s.backlog) > 0 {
				next := s.backlog[0]
				s.backlog = s.backlog[1:]
				start(e.serverIdx, next, e.at)
			}
		}
	}
	record(horizon + opts.SampleEveryS)
	drain.End()
	opts.Obs.Counter("dcsim.jobs_completed").Add(int64(res.Completed))
	opts.Obs.Counter("dcsim.jobs_dropped").Add(int64(res.Dropped))

	if len(slowdowns) > 0 {
		// One sort serves all three percentiles.
		sort.Float64s(slowdowns)
		res.SojournP50S = numeric.PercentileSorted(slowdowns, 50)
		res.SojournP95S = numeric.PercentileSorted(slowdowns, 95)
		res.SojournP99S = numeric.PercentileSorted(slowdowns, 99)
	}
	res.Utilization = util
	res.UtilPerServer = make([]float64, opts.Servers)
	for i := range servers {
		servers[i].accumulate(horizon)
		res.UtilPerServer[i] = servers[i].busyTimeS / (float64(opts.ThreadsPerServer) * (horizon - tr.Total.Start))
	}
	perRack := opts.ServersPerRack
	if perRack <= 0 {
		perRack = opts.Servers
	}
	for lo := 0; lo < opts.Servers; lo += perRack {
		hi := lo + perRack
		if hi > opts.Servers {
			hi = opts.Servers
		}
		sum := 0.0
		for i := lo; i < hi; i++ {
			sum += res.UtilPerServer[i]
		}
		res.UtilPerRack = append(res.UtilPerRack, sum/float64(hi-lo))
	}
	return res, nil
}

// meanScale normalizes the per-class service scaling so the aggregate mean
// service time stays at MeanServiceS given the class mix at step i.
func meanScale(tr *workload.Trace, i int) float64 {
	total := tr.Total.Values[i]
	if total <= 0 {
		return 1
	}
	s := 0.0
	for _, j := range workload.JobTypes {
		s += tr.PerType[j].Values[i] / total * serviceScale(j)
	}
	if s <= 0 {
		return 1
	}
	return s
}

// pickClass samples a job class proportional to the per-class load share
// at trace step i.
func pickClass(rng *rand.Rand, tr *workload.Trace, i int) workload.JobType {
	total := tr.Total.Values[i]
	if total <= 0 {
		return workload.Search
	}
	x := rng.Float64() * total
	acc := 0.0
	for _, j := range workload.JobTypes {
		acc += tr.PerType[j].Values[i]
		if x <= acc {
			return j
		}
	}
	return workload.MapReduce
}

// poisson draws a Poisson variate; for large means it uses the normal
// approximation to stay O(1).
func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 64 {
		v := mean + math.Sqrt(mean)*rng.NormFloat64()
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for p > l {
		k++
		p *= rng.Float64()
	}
	return k - 1
}

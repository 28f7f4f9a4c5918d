package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// percentile returns the p-th percentile (0-100) of xs by linear
// interpolation between closest ranks; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailPercentile returns the p95 of xs when at least ten samples lie
// beyond it, else the maximum, with a label naming which. The p99 would be
// the higher percentile with ten samples beyond it on fleet-warehouse, but
// on a shared two-vCPU host the p99 of fleet epochs reads preemption by
// other tenants: it moved by more than a quarter between runs of the same
// code, while the p95 holds.
func tailPercentile(xs []float64) (float64, string) {
	if float64(len(xs))*0.05 >= 10 {
		return percentile(xs, 95), fmt.Sprintf("p95 of %d", len(xs))
	}
	return percentile(xs, 100), fmt.Sprintf("max of %d", len(xs))
}

// rawScaling measures the speed-up of two goroutines of pure compute over
// one: the ceiling any multi-core claim on this host is read against.
func rawScaling() float64 {
	const work = 1 << 24
	spin := func() float64 {
		x := 1.0
		for i := 0; i < work; i++ {
			x = x*1.0000001 + 1e-9
		}
		return x
	}
	timeIt := func(par int) time.Duration {
		var wg sync.WaitGroup
		sink := make([]float64, par)
		start := time.Now()
		for g := 0; g < par; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				sink[g] = spin()
			}(g)
		}
		wg.Wait()
		return time.Since(start)
	}
	var one, two []float64
	for i := 0; i < 3; i++ {
		one = append(one, float64(timeIt(1)))
		two = append(two, float64(timeIt(2)))
	}
	return 2 * median(one) / median(two)
}

// span is one timed call into a layer, recorded from this package's own
// files around the public function it names.
type span struct {
	Name    string  `json:"name"`
	Parent  int     `json:"parent"` // index of the enclosing span, -1 for none
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span under parent and returns its index and a function
// that closes it. Safe for concurrent use.
func (t *tracer) start(name string, parent int) (int, func()) {
	if t == nil {
		return -1, func() {}
	}
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, StartUS: t.sinceUS()})
	t.mu.Unlock()
	return id, func() {
		t.mu.Lock()
		t.spans[id].EndUS = t.sinceUS()
		t.mu.Unlock()
	}
}

func (t *tracer) sinceUS() float64 { return float64(time.Since(t.epoch)) / float64(time.Microsecond) }

// write dumps the spans as JSON to path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

package dcsim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// boxedQueue is the container/heap form of the event queue, kept as the
// oracle for eventQueue's pop order.
type boxedQueue []event

func (q boxedQueue) Len() int            { return len(q) }
func (q boxedQueue) Less(i, j int) bool  { return q[i].at < q[j].at }
func (q boxedQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *boxedQueue) Push(x interface{}) { *q = append(*q, x.(event)) }
func (q *boxedQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// TestEventQueueMatchesContainerHeap pushes and pops a seeded random
// sequence through both heaps and requires identical pop order. Times are
// drawn from a small grid so ties are common: equal-time events must
// leave in container/heap's order for the event engine's results to stay
// bit-identical.
func TestEventQueueMatchesContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var typed eventQueue
		var boxed boxedQueue
		id := 0
		for op := 0; op < 5000; op++ {
			if len(typed) == 0 || rng.Float64() < 0.55 {
				e := event{at: float64(rng.Intn(40)), serverIdx: id}
				id++
				typed.push(e)
				heap.Push(&boxed, e)
				continue
			}
			got, want := typed.pop(), heap.Pop(&boxed).(event)
			if got != want {
				t.Fatalf("seed %d op %d: popped %+v, container/heap popped %+v", seed, op, got, want)
			}
		}
		for len(typed) > 0 {
			got, want := typed.pop(), heap.Pop(&boxed).(event)
			if got != want {
				t.Fatalf("seed %d drain: popped %+v, container/heap popped %+v", seed, got, want)
			}
		}
		if boxed.Len() != 0 {
			t.Fatalf("seed %d: container/heap still holds %d events", seed, boxed.Len())
		}
	}
}

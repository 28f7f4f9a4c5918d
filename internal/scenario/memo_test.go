package scenario

import (
	"math"
	"sync"
	"testing"

	"repro/internal/workload"
)

// TestNamedConcurrent hammers the memo from 16 goroutines; under -race it
// proves the lazy load and the shared traces are race-clean. It comes
// first in the package so the goroutines race the corpus's first load.
func TestNamedConcurrent(t *testing.T) {
	names := Names()
	var wg sync.WaitGroup
	traces := make([][]*workload.Trace, 16)
	errs := make(chan error, 16*2*len(names))
	for g := range traces {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			traces[g] = make([]*workload.Trace, len(names))
			for k := range names {
				name := names[(k+g)%len(names)]
				sc, err := Named(name)
				if err != nil {
					errs <- err
					continue
				}
				sc.Mix[0].Racks += g // a private edit that keeps the workload
				tr, err := sc.Build()
				if err != nil {
					errs <- err
					continue
				}
				traces[g][(k+g)%len(names)] = tr
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for g := 1; g < len(traces); g++ {
		for k := range names {
			if traces[g][k] != traces[0][k] {
				t.Errorf("%s: goroutines got different traces; the corpus was built more than once", names[k])
			}
		}
	}
}

// TestNamedReturnsClones pins the clone-on-return rule: editing what
// Named returned never reaches the memo, so a later Named sees the
// embedded text as written.
func TestNamedReturnsClones(t *testing.T) {
	// Each edit reports whether the entry had the field to edit.
	edits := map[string]func(*Spec) bool{
		"seed":       func(s *Spec) bool { s.Gen.Seed++; return true },
		"mix racks":  func(s *Spec) bool { s.Mix[0].Racks++; return true },
		"mix append": func(s *Spec) bool { s.Mix = append(s.Mix, MixEntry{Tag: "1U", Racks: 1}); return true },
		"component": func(s *Spec) bool {
			if len(s.Gen.Components) == 0 {
				return false
			}
			s.Gen.Components[0].Value /= 2
			return true
		},
		"append comp": func(s *Spec) bool {
			s.Gen.Components = append(s.Gen.Components, workload.Component{Kind: workload.CompSeason, PeriodS: 86400, Value: 0.1})
			return true
		},
		"sample util": func(s *Spec) bool {
			if len(s.Gen.Samples) == 0 {
				return false
			}
			s.Gen.Samples[0].Util /= 2
			return true
		},
		"append sample": func(s *Spec) bool {
			s.Gen.Samples = append(s.Gen.Samples, workload.Sample{AtS: 1, Util: 0.5})
			return true
		},
	}
	for _, name := range Names() {
		first, err := Named(name)
		if err != nil {
			t.Fatal(err)
		}
		want := first.String()
		for label, edit := range edits {
			sc, err := Named(name)
			if err != nil {
				t.Fatal(err)
			}
			if !edit(sc) {
				continue
			}
			if sc.String() == want {
				t.Fatalf("%s: edit %q did not change the clone", name, label)
			}
			again, err := Named(name)
			if err != nil {
				t.Fatal(err)
			}
			if got := again.String(); got != want {
				t.Fatalf("%s: editing a Named clone (%s) leaked into the memo:\n%s", name, label, got)
			}
		}
	}
}

// TestNamedMemoTraceMatchesFreshBuild pins the memo to the generator:
// for every corpus entry, Build hands back one memoized trace, and that
// trace is Float64bits-equal to a fresh GenSpec.Build.
func TestNamedMemoTraceMatchesFreshBuild(t *testing.T) {
	for _, name := range Names() {
		sc, err := Named(name)
		if err != nil {
			t.Fatal(err)
		}
		memo, err := sc.Build()
		if err != nil {
			t.Fatal(err)
		}
		if again, _ := sc.Build(); again != memo {
			t.Errorf("%s: Build rebuilt the trace instead of reusing the corpus memo", name)
		}
		fresh, err := sc.Gen.Build()
		if err != nil {
			t.Fatal(err)
		}
		if fresh == memo {
			t.Fatalf("%s: GenSpec.Build returned the memoized trace", name)
		}
		sameBits(t, name+" Total", memo.Total.Values, fresh.Total.Values)
		if len(memo.PerType) != len(fresh.PerType) {
			t.Fatalf("%s: %d per-type series, fresh build has %d", name, len(memo.PerType), len(fresh.PerType))
		}
		for j, s := range fresh.PerType {
			sameBits(t, name+" "+j.String(), memo.PerType[j].Values, s.Values)
		}
	}
}

// TestBuildEditedSpecMissesMemo pins the memo key: a spec whose workload
// was edited after Named gets the edited trace, not the corpus one.
func TestBuildEditedSpecMissesMemo(t *testing.T) {
	sc, err := Named("diurnal-baseline")
	if err != nil {
		t.Fatal(err)
	}
	memo, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	sc.Gen.Days = 1
	tr, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	if tr == memo || tr.Total.Len() != memo.Total.Len()/2 {
		t.Errorf("edited spec built %d epochs, want %d", tr.Total.Len(), memo.Total.Len()/2)
	}
}

// sameBits asserts two series are Float64bits-identical.
func sameBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: [%d] = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// BenchmarkNamed times a warm corpus lookup: a memo hit plus the clone,
// cycling through every embedded name.
func BenchmarkNamed(b *testing.B) {
	names := Names()
	for _, n := range names {
		if _, err := Named(n); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Named(names[i%len(names)]); err != nil {
			b.Fatal(err)
		}
	}
}

package workload_test

import (
	"testing"

	"repro/internal/scenario"
	"repro/internal/workload"
)

// TestBisectEarlyStopCorpus runs the early-stopping generator against the
// 80-iteration oracle on every corpus workload that normalizes through
// the bisection (the diurnal and weekly patterns; flat and trace replay
// never call it), bit for bit.
func TestBisectEarlyStopCorpus(t *testing.T) {
	checked := 0
	for _, n := range scenario.Names() {
		sc, err := scenario.Named(n)
		if err != nil {
			t.Fatal(err)
		}
		if p := sc.Gen.Pattern; p != workload.PatternDiurnal && p != workload.PatternWeekly {
			continue
		}
		opts := sc.Gen.BaseOptions()
		fast, err := workload.Generate(opts)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		slow, err := workload.GenerateSlow(opts)
		if err != nil {
			t.Fatalf("%s: oracle: %v", n, err)
		}
		workload.SameTraceBits(t, n, fast, slow)
		checked++
	}
	if checked == 0 {
		t.Fatal("no corpus scenario normalizes through the bisection")
	}
}

// BenchmarkGenSpecBuild times a cold workload build for the commonest
// corpus shape (two diurnal days at a five-minute step) and the costliest
// (a diurnal year at a one-hour step).
func BenchmarkGenSpecBuild(b *testing.B) {
	for _, name := range []string{"diurnal-baseline", "wax-aging-year"} {
		sc, err := scenario.Named(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sc.Gen.Build(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/autoscale"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/scenario"
)

// TestWrappersAreInert proves the timing wrappers change nothing: a run
// through them is Float64bits-identical to the same run without them,
// for the balancer on the warehouse floor and for the autoscaler on a
// closed-loop corpus scenario.
func TestWrappersAreInert(t *testing.T) {
	w, err := newWarehouse(true, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := w.fleet.Run(w.trace)
	if err != nil {
		t.Fatal(err)
	}
	pol := &timedPolicy{inner: fleet.ThermalAware{}}
	f, err := w.build(2, pol)
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := f.Run(w.trace)
	if err != nil {
		t.Fatal(err)
	}
	if runDigest(plain) != runDigest(wrapped) {
		t.Error("the wrapped balancer changed the warehouse run")
	}
	if pol.Name() != (fleet.ThermalAware{}).Name() || pol.calls != w.trace.Total.Len() {
		t.Errorf("wrapper named %q with %d calls, want %q with %d", pol.Name(), pol.calls, fleet.ThermalAware{}.Name(), w.trace.Total.Len())
	}

	sc, err := scenario.Named("autoscale-hysteresis-surge")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sc.Gen.Build()
	if err != nil {
		t.Fatal(err)
	}
	bal, err := fleet.ParsePolicy(sc.Balance)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := autoscale.ParsePolicy(sc.Autoscale)
	if err != nil {
		t.Fatal(err)
	}
	var digests []uint64
	for _, wrap := range []bool{false, true} {
		var scaler fleet.Scaler = autoscale.New(autoscale.Config{Policy: dp})
		var timed *timedScaler
		if wrap {
			timed = &timedScaler{inner: scaler}
			scaler = timed
		}
		f, err := specFleet(sc, &timedPolicy{inner: bal}, scaler, nil)
		if err != nil {
			t.Fatal(err)
		}
		r, err := f.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		if wrap && (r.Scaler != timed.inner.Name() || timed.calls != tr.Total.Len()) {
			t.Errorf("scaler wrapper: run names %q with %d calls, want %q with %d", r.Scaler, timed.calls, timed.inner.Name(), tr.Total.Len())
		}
		digests = append(digests, runDigest(r))
	}
	if digests[0] != digests[1] {
		t.Error("the wrapped scaler changed the closed-loop run")
	}
}

// contract is the part of BENCHMARK.json the program must honour.
type contract struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// runSmoke runs the command in smoke mode and decodes its result line.
func runSmoke(t *testing.T, workload, trace string) result {
	t.Helper()
	var out, errb bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", "7", "--seconds", "0.2", "--trace", trace,
		"--smoke", "--root", "..", "--scratch", t.TempDir()}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s\n%s", code, errb.String(), out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("result correct=%v attempted=%d failed=%d:\n%s", res.Correct, res.Attempted, res.Failed, out.String())
	}
	return res
}

// sameNames reports whether a result carries exactly the contract's
// metrics, each in its unit.
func sameNames(t *testing.T, res result, want []struct{ Name, Unit string }) {
	t.Helper()
	var got, exp []string
	for n, m := range res.Metrics {
		got = append(got, n+" "+m.Unit)
	}
	for _, m := range want {
		exp = append(exp, m.Name+" "+m.Unit)
	}
	sort.Strings(got)
	sort.Strings(exp)
	if strings.Join(got, ",") != strings.Join(exp, ",") {
		t.Errorf("metrics\n got %v\nwant %v", got, exp)
	}
}

// TestSmoke runs every workload of BENCHMARK.json end to end on tiny
// inputs, with every output check on, and the traced run once.
func TestSmoke(t *testing.T) {
	c := loadContract(t)
	for _, w := range c.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			sameNames(t, runSmoke(t, w.Name, "0"), c.EndToEnd)
		})
	}
	t.Run("traced", func(t *testing.T) {
		sameNames(t, runSmoke(t, c.Workloads[0].Name, "1"), c.PerLayer)
	})
}

// TestSchedule pins the serve-mixed schedule: the same seed gives the
// same requests, every block holds the stated mix, and write seeds never
// repeat.
func TestSchedule(t *testing.T) {
	names := scenario.Names()
	a, b := schedule(5, 200, names), schedule(5, 200, names)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs between two schedules from one seed", i)
		}
	}
	if c := schedule(6, 200, names); c[0] == a[0] && c[1] == a[1] && c[2] == a[2] {
		t.Error("two seeds gave the same schedule")
	}
	counts := map[reqKind]int{}
	seeds := map[int64]bool{}
	for _, r := range a[:len(serveBlock)] {
		counts[r.kind]++
	}
	for _, r := range a {
		if r.kind == write {
			if seeds[r.seed] {
				t.Errorf("write seed %d repeats", r.seed)
			}
			seeds[r.seed] = true
		}
	}
	want := map[reqKind]int{}
	for _, k := range serveBlock {
		want[k]++
	}
	for k, n := range want {
		if counts[k] != n {
			t.Errorf("first block holds %d %s, want %d", counts[k], k, n)
		}
	}
}

// TestGoldenCheckCarriesSignal proves the studies golden check passes an
// unchanged result and names a single perturbed number.
func TestGoldenCheckCarriesSignal(t *testing.T) {
	c, err := loadCorpus("..")
	if err != nil {
		t.Fatal(err)
	}
	view, err := experiments["scenario"](context.Background(), core.NewStudy())
	if err != nil {
		t.Fatal(err)
	}
	golden := c.goldens["scenario"]
	if d := matchGolden(view, golden); d != "" {
		t.Fatalf("unchanged result differs from its golden: %s", d)
	}
	i := bytes.Index(golden, []byte(`"absorbed_j":`)) + len(`"absorbed_j":`)
	bumped := append(append(append([]byte(nil), golden[:i]...), '9'), golden[i:]...)
	if d := matchGolden(view, bumped); !strings.Contains(d, "absorbed_j") {
		t.Errorf("a perturbed absorbed_j went unnoticed (diff %q)", d)
	}
}

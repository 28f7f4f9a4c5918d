// Command ttbench is the repository benchmark: one program that drives the
// simulator through its public entry points on three workloads, checks
// every output it times, and prints its metrics by name and unit.
//
// Usage (from the repository root; bench/run.sh builds and runs it):
//
//	ttbench --workload fleet-warehouse|studies|serve-mixed --seed n
//	        --seconds s --trace 0|1 [--root dir] [--scratch dir] [--smoke]
//
// Every number is host time: time the simulator spends running on this
// machine. Simulated quantities (cooling peaks, liquid fractions, energy
// balances) are correctness checks, never metrics.
//
// With --trace 0 a run measures the workload's end-to-end metrics. Each
// workload repeats one operation: one epoch of a 10,000-rack Fleet.Run
// (fleet-warehouse), a whole study pass (studies) or one HTTP request
// timed from when it was due (serve-mixed). The metrics are the same on
// every workload:
//
//	setup_s      median one-time set-up before the timed loop, set up
//	             several times per run
//	op_p50_ms    median host time of one operation
//	op_tail_ms   p95 of operation time when at least ten samples lie
//	             beyond it, else the slowest operation
//	slo_frac     share of attempted operations answered, checked correct
//	             and within the workload's latency limit
//	peak_rss_mb  peak resident memory of the process
//	alloc_mb     megabytes allocated per operation in the timed loop
//	cpu_ms       process CPU time (user plus system) per operation in the
//	             timed loop: the work, with little of the wall-clock noise
//	             other tenants of the host add
//
// Failed and refused operations are reported as "failed" beside
// "attempted". Each workload also prints its own figures by name before
// the result line (fleet_rack_epochs_per_s, studies_pass_s,
// serve_p50_ms, serve_p99_ms, serve_slo_frac, fail_frac).
//
// With --trace 1 a run times each layer's public functions from this
// package's own files (see layers.go) and prints the per-layer metrics,
// plus trace.overhead: the workload's operation timed with spans against
// the same operation without them.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options carry one run's settings into a workload.
type options struct {
	seed       int64
	seconds    float64
	rawScaling float64 // measured once at start, reported by the traced run
	root       string  // repository checkout holding the goldens
	scratch    string  // directory for journals and span dumps
	smoke      bool    // tiny inputs: the package tests use this
	out        io.Writer
}

// outcome is what a workload's timed loop reports; main turns it into
// the common end-to-end metrics.
type outcome struct {
	setups    []float64 // seconds, one per set-up repetition
	ops       []float64 // milliseconds per operation
	inLimit   int       // operations answered, correct and within limit
	attempted int
	failed    int
	allocB    uint64        // bytes allocated across the timed loop
	cpu       time.Duration // process CPU time across the timed loop
	checks
}

// checks collects the output checks that failed.
type checks struct{ problems []string }

// check records a failed output check.
func (c *checks) check(ok bool, format string, args ...any) {
	if !ok {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// workloads maps each workload name to its untraced run. The traced run
// is common to all (see layers.go).
var workloads = map[string]func(options) (*outcome, error){
	"fleet-warehouse": runFleetWarehouse,
	"studies":         runStudies,
	"serve-mixed":     runServeMixed,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ttbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fleet-warehouse, studies or serve-mixed")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "length of the timed loop in seconds")
	trace := fs.Int("trace", 0, "1 times every layer (per-layer metrics); 0 measures end to end")
	root := fs.String("root", ".", "repository checkout holding the serving goldens")
	scratch := fs.String("scratch", ".bench_build", "directory for journals and span dumps")
	smoke := fs.Bool("smoke", false, "tiny inputs, for a quick end-to-end check")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "ttbench: want --workload %s, --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fmt.Fprintln(stderr, "ttbench:", err)
		return 1
	}
	opts := options{seed: *seed, seconds: *seconds, root: *root, scratch: *scratch, smoke: *smoke, out: stdout}
	opts.rawScaling = printHost(stdout)

	var res *result
	var err error
	if *trace == 1 {
		res, err = runLayers(*name, opts)
	} else {
		var o *outcome
		if o, err = wl(opts); err == nil {
			res = endToEnd(o, stdout)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "ttbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "ttbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// endToEnd folds a workload outcome into the common metrics, printing
// every failed check.
func endToEnd(o *outcome, out io.Writer) *result {
	for _, p := range o.problems {
		fmt.Fprintln(out, "CHECK FAILED:", p)
	}
	n := len(o.ops)
	tail, tailLabel := tailPercentile(o.ops)
	fmt.Fprintf(out, "operations: %d timed, tail = %s\n", n, tailLabel)
	res := &result{
		Correct:   len(o.problems) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics: map[string]metric{
			"setup_s":     {median(o.setups), "s"},
			"op_p50_ms":   {percentile(o.ops, 50), "ms"},
			"op_tail_ms":  {tail, "ms"},
			"slo_frac":    {float64(o.inLimit) / float64(max(o.attempted, 1)), "fraction"},
			"peak_rss_mb": {peakRSSMB(), "MB"},
			"alloc_mb":    {float64(o.allocB) / 1e6 / float64(max(n, 1)), "MB"},
			"cpu_ms":      {ms(o.cpu) / float64(max(n, 1)), "ms"},
		},
	}
	fmt.Fprintf(out, "fail_frac %.6f fraction (%d of %d)\n", float64(o.failed)/float64(max(o.attempted, 1)), o.failed, o.attempted)
	return res
}

// printHost records the facts a result must be read beside and returns
// the host's raw scaling.
func printHost(out io.Writer) float64 {
	fmt.Fprintf(out, "host: nproc %d, GOMAXPROCS %d, cpu %q, %s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	scaling := rawScaling()
	fmt.Fprintf(out, "host.raw_scaling %.3f x (two goroutines of pure compute against one)\n", scaling)
	return scaling
}

// cpuModel reads the processor name, or "unknown" off Linux.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB, or
// the Go runtime's obtained memory where /proc is unavailable.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// cpuTime returns the CPU time (user plus system) the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// totalAlloc returns the bytes allocated by the process so far.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// procs is the worker count of every runtime the benchmark builds; the
// closed loops use as many clients and the open loop as many connections.
const procs = 2

// options is one invocation's command line.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// corruptRef flips one reference checksum before the timed phase, so
	// the run must fail. Only the benchmark's own test of its correctness
	// gate sets it.
	corruptRef bool
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(o options, rep *report){
	"serve-mix": runServeMix,
	"txn-hot":   runTxnHot,
	"forkjoin":  runForkjoin,
}

func main() {
	var o options
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(names, "|"))
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured phase")
	traced := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	flag.Parse()
	run, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		os.Exit(2)
	}
	o.trace = *traced == 1

	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%d commit=%s nproc=%d gomaxprocs=%d go=%s\n",
		o.workload, o.seed, o.seconds, *traced, commit(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	rep := &report{}
	run(o, rep)
	os.Exit(rep.print(os.Stdout))
}

// commit reports the VCS revision the binary was built from, when the
// build saw one.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// metric is one reported number with the count of samples behind it.
type metric struct {
	name    string
	unit    string
	value   float64
	samples int
}

// report collects one run's operation counts, correctness-gate
// violations and metrics.
type report struct {
	attempted, failed int64
	violations        []string
	notes             []string
	metrics           []metric
}

// violate records a correctness-gate failure; the run then prints no
// numbers.
func (r *report) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// note records a line printed above the metrics.
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) add(name, unit string, value float64, samples int) {
	r.metrics = append(r.metrics, metric{name, unit, value, samples})
}

// print writes the human-readable lines and the final JSON line, and
// returns the exit code: 0 when every output was correct.
func (r *report) print(w io.Writer) int {
	correct := len(r.violations) == 0 && r.failed == 0 && r.attempted > 0
	out := map[string]any{}
	if correct {
		for _, n := range r.notes {
			fmt.Fprintln(w, "#", n)
		}
		for _, m := range r.metrics {
			fmt.Fprintf(w, "%-28s %14.6g %-9s n=%d\n", m.name, m.value, m.unit, m.samples)
			out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
		}
	} else {
		for _, v := range r.violations {
			fmt.Fprintln(os.Stderr, "perfbench: FAIL:", v)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed\n", r.failed, r.attempted)
	}
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": r.attempted, "failed": r.failed, "metrics": out,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(w, string(line))
	if !correct {
		return 1
	}
	return 0
}

// windowPlan splits the measured phase into windows. The untraced run is
// the given number of equal windows. The traced run alternates untraced
// and traced windows of about half a second, so per-layer counts come
// from untraced windows, span times from traced ones, and the two
// interleave to cancel drift when the tracing overhead is computed.
func windowPlan(o options, untraced int) []bool {
	if !o.trace {
		return make([]bool, untraced)
	}
	n := int(o.seconds / traceWindow.Seconds())
	if n < 2 {
		n = 2
	}
	plan := make([]bool, n)
	for i := range plan {
		plan[i] = i%2 == 1
	}
	return plan
}

const traceWindow = 500 * time.Millisecond

// windowDur is the length of each window of the plan.
func windowDur(o options, plan []bool) time.Duration {
	return time.Duration(o.seconds * float64(time.Second) / float64(len(plan)))
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the test checks the output
// against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// result is the final JSON line of a run.
type result struct {
	Correct           bool
	Attempted, Failed int64
	Metrics           map[string]struct {
		Value float64
		Unit  string
	}
}

func runShort(t *testing.T, o options) (*report, result, int) {
	t.Helper()
	rep := &report{}
	workloads[o.workload](o, rep)
	var out bytes.Buffer
	code := rep.print(&out)
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return rep, res, code
}

// TestEveryMetricPrinted runs every workload briefly, untraced and
// traced, and checks that each metric of BENCHMARK.json is printed with
// its unit and a sample count.
func TestEveryMetricPrinted(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			// An untraced run needs a complete pass over the pool in one
			// of its windows for run_s.
			seconds := 6.0
			if traced {
				seconds = 2
			}
			rep, res, code := runShort(t, options{workload: w.Name, seed: 7, seconds: seconds, trace: traced})
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: exit %d, %+v, violations %v", w.Name, traced, code, res, rep.violations)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w.Name, traced, len(res.Metrics), len(want))
			}
			samples := map[string]int{}
			for _, m := range rep.metrics {
				samples[m.name] = m.samples
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v, want unit %s", w.Name, traced, m.Name, got, m.Unit)
				}
				if _, ok := samples[m.Name]; !ok {
					t.Errorf("%s trace=%v: metric %s has no sample count", w.Name, traced, m.Name)
				}
			}
			if !traced {
				for _, m := range spec.EndToEnd {
					if v := res.Metrics[m.Name].Value; v <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, v)
					}
				}
			}
		}
	}
}

// TestCorruptReferenceFails checks the correctness gate: with one
// reference checksum corrupted, every workload fails and prints no
// metric.
func TestCorruptReferenceFails(t *testing.T) {
	for _, w := range loadSpec(t).Workloads {
		rep, res, code := runShort(t, options{workload: w.Name, seed: 7, seconds: 1, corruptRef: true})
		if code == 0 || res.Correct || len(res.Metrics) != 0 || len(rep.violations) == 0 {
			t.Errorf("%s with a corrupted reference: exit %d, %+v, violations %v", w.Name, code, res, rep.violations)
		}
	}
}

// TestWireLeg checks that serve-mix's traced run measures the netserve
// layer, and that the wire leg fails on a reply that differs from its
// reference.
func TestWireLeg(t *testing.T) {
	rep, res, code := runShort(t, options{workload: "serve-mix", seed: 7, seconds: 2, trace: true})
	if code != 0 || !res.Correct {
		t.Fatalf("serve-mix traced: exit %d, violations %v", code, rep.violations)
	}
	for _, m := range rep.metrics {
		if strings.HasPrefix(m.name, "netserve.") && m.samples == 0 {
			t.Errorf("%s has no samples", m.name)
		}
	}

	rep = &report{}
	leg := newWireLeg(7, rep)
	leg.pool[0].ref ^= 1
	loop, err := newClosedLoop(wireSpec, leg.pool, leg.order)
	if err != nil {
		t.Fatal(err)
	}
	leg.run(rep, loop.srv, 100*time.Millisecond)
	loop.close(rep)
	if rep.failed == 0 || len(rep.violations) == 0 {
		t.Errorf("wire leg with a corrupted reference: %d failed, violations %v", rep.failed, rep.violations)
	}
}

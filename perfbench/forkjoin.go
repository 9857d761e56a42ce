package main

import (
	"time"

	"repro/hh"
	"repro/internal/bench"
	"repro/internal/rts"
	"repro/internal/trace"
)

// forkjoinPrograms is the paper's imperative suite, run at the
// internal/bench default scales. metric names the per-program metric.
var forkjoinPrograms = []struct{ name, metric string }{
	{"msort", "msort"},
	{"dedup", "dedup"},
	{"tourney", "tourney"},
	{"reachability", "reachability"},
	{"usp-tree", "usp_tree"},
}

// fjProgram is one suite program with its reference checksum.
type fjProgram struct {
	b   *bench.Benchmark
	ref uint64
}

// fjSuite runs passes over the suite on ParMem at P=2. The programs'
// inputs are the suite's own deterministic ones; the seed orders the
// programs within each pass.
type fjSuite struct {
	progs []fjProgram
	seed  uint64
	pass  uint64
	// maxZones and pinsLive are the largest zone concurrency and live pin
	// count any measured run reached.
	maxZones, pinsLive int64
	measured           int // runs whose counters went into a window
	// news and closes time each run's rts.New and Close.
	news, closes []time.Duration
}

// runProgram runs b once on a fresh runtime in the steps of bench.Run:
// New, input construction, the timed phase, the check, Close. Unlike
// bench.Run it also times New and Close, and when traced it spans the
// timed phase alone with the request span, so the span holds what
// Result.Elapsed measures.
func (d *fjSuite) runProgram(b *bench.Benchmark, cfg rts.Config, traced bool, arg uint64) bench.Result {
	t0 := time.Now()
	r := rts.New(cfg)
	d.news = append(d.news, time.Since(t0))
	var res bench.Result
	var gcSetup int64
	r.Run(func(t *rts.Task) uint64 {
		env := b.Setup(t, b.Default)
		mark := t.PushRoot(&env)
		gcSetup = t.GCNanosSoFar()
		var span uint64
		if traced {
			span = trace.Begin(-1, trace.EvRequest, 0, arg)
		}
		start := time.Now()
		out := b.Run(t, env, b.Default)
		res.Elapsed = time.Since(start)
		trace.End(-1, trace.EvRequest, span, 0, arg)
		t.PushRoot(&out)
		res.Checksum = b.Check(t, env, out, b.Default)
		t.PopRoots(mark)
		return res.Checksum
	})
	res.Totals = r.Stats()
	res.GCNanos = res.Totals.GCNanos - gcSetup
	t0 = time.Now()
	r.Close()
	d.closes = append(d.closes, time.Since(t0))
	return res
}

// runPass runs every program once and returns the pass's timed phases
// and the largest peak occupancy; with w set it adds the programs'
// counter totals to w.
func (d *fjSuite) runPass(rep *report, traced bool, w *window, perProgram map[string][]time.Duration) (time.Duration, int64) {
	cfg := rts.DefaultConfig(hh.ParMem, procs)
	order := permutation(len(d.progs), d.seed^hh.Hash64(d.pass))
	d.pass++
	var total time.Duration
	var peak int64
	for _, k := range order {
		p := d.progs[k]
		base := hh.ChunksInUse()
		rep.attempted++
		res := d.runProgram(p.b, cfg, traced, uint64(k))
		ok := true
		if res.Checksum != p.ref {
			rep.violate("%s: checksum %#x, reference %#x", p.b.Name, res.Checksum, p.ref)
			ok = false
		}
		if !res.Totals.Deferred.Balanced() {
			rep.violate("%s: deferred pin accounting unbalanced: %+v", p.b.Name, res.Totals.Deferred)
			ok = false
		}
		if got := hh.ChunksInUse(); got != base {
			rep.violate("%s: %d chunks in use after the run, %d before", p.b.Name, got, base)
			ok = false
		}
		if !ok {
			rep.failed++
			continue
		}
		total += res.Elapsed
		peak = max(peak, res.Totals.PeakMem)
		if w != nil {
			t := statsTally(res.Totals)
			t["gc_ns"] = float64(res.GCNanos) // the timed phase's share
			w.counts.add(t)
			d.maxZones = max(d.maxZones, res.Totals.Zones.MaxConcurrent)
			d.pinsLive = max(d.pinsLive, res.Totals.Deferred.Live)
			d.measured++
		}
		if perProgram != nil {
			perProgram[p.b.Name] = append(perProgram[p.b.Name], res.Elapsed)
		}
	}
	return total, peak
}

// permutation returns a seeded shuffle of 0..n-1.
func permutation(n int, seed uint64) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(hh.Hash64(seed+uint64(i)) % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// runForkjoin: the paper's own evaluation shape. Set-up is a warm-up pass
// (it fills the chunk pool); a measured pass is one run of each program,
// timed by bench.Result.Elapsed.
func runForkjoin(o options, rep *report) {
	d := &fjSuite{seed: o.seed}
	seqCfg := rts.DefaultConfig(hh.Seq, 1)
	for _, p := range forkjoinPrograms {
		b, err := bench.ByName(p.name)
		if err != nil {
			rep.violate("%v", err)
			return
		}
		// The untimed reference: the same program on the sequential runtime.
		d.progs = append(d.progs, fjProgram{b: b, ref: bench.Run(b, seqCfg, b.Default).Checksum})
	}
	if o.corruptRef {
		d.progs[0].ref ^= 1
	}

	var setups []time.Duration
	for range setupRuns {
		t0 := time.Now()
		d.runPass(rep, false, nil, nil)
		setups = append(setups, time.Since(t0))
	}
	if len(rep.violations) > 0 {
		return
	}

	plan := windowPlan(o, 1)
	dur := windowDur(o, plan)
	var ws []window
	var peaks []int64 // peak chunk occupancy of each pass, bytes
	perProgram := map[string][]time.Duration{}
	for _, traced := range plan {
		w := window{traced: traced, counts: tally{}}
		if traced {
			startTrace()
		}
		// Start another pass only while one more of the mean wall time so
		// far still ends within the window.
		start := time.Now()
		for n := time.Duration(0); n == 0 || time.Since(start)*(n+1)/n <= dur; n++ {
			var pp map[string][]time.Duration
			if !traced {
				pp = perProgram
			}
			total, peak := d.runPass(rep, traced, &w, pp)
			w.lat.record(total)
			w.passes = append(w.passes, total)
			w.wall += total
			peaks = append(peaks, peak)
		}
		if traced {
			w.counts.add(stopTrace())
		}
		w.counts["passes"] = float64(len(w.passes))
		ws = append(ws, w)
	}

	if !o.trace {
		endToEnd(rep, ws, median(peaks), setups)
		return
	}
	in := layerInputs{
		news:   d.news,
		closes: d.closes,
		gauges: tally{
			"max_concurrent_zones": float64(d.maxZones),
			"pins_live":            float64(d.pinsLive),
		},
		gaugeRuns: d.measured,
		programs:  perProgram,
	}
	perLayer(rep, ws, in)
}

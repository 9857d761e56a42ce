package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/hh"
	"repro/hh/serve"
	"repro/internal/load"
	"repro/internal/trace"
)

// setupRuns is how many times a run builds its system; setup_s is the
// median, and every build but the last is torn down and checked.
const setupRuns = 5

// servingWindows is how many equal windows an untraced serving run
// measures; its throughput and latencies are their medians.
const servingWindows = 5

// servingSpec describes a request-serving workload's inputs.
type servingSpec struct {
	names  []string // the scenario mix, each name once per unit of weight
	params load.Params
	size   int
	// pool is the number of distinct requests. The stream walks them in a
	// seeded order, the warm-up sweeps them once, and a pass is that many
	// completions.
	pool int
}

// request is one entry of a workload's request pool.
type request struct {
	scenario string
	seed     uint64
	size     int
	ref      uint64 // checksum of the untimed reference run on Seq
}

// makePool generates the request pool from the seed. The pool holds the
// mix's scenarios in their exact proportions, so every seed offers the
// same work; the seed draws each request's own seed and the order in
// which the stream walks the pool.
func makePool(seed uint64, spec servingSpec) ([]request, []int) {
	pool := make([]request, spec.pool)
	for k := range pool {
		h := hh.Hash64(seed*0x9E3779B97F4A7C15 + uint64(k) + 1)
		pool[k] = request{scenario: spec.names[k%len(spec.names)], seed: h>>1 + 1, size: spec.size}
	}
	return pool, permutation(len(pool), seed)
}

// bind instantiates the pool's request bodies for one runtime. Stateless
// scenarios run as they are; each stateful one (txn) gets one instance
// shared by all its requests, returned so its oracle can run after the
// runtime drains.
func bind(spec servingSpec, pool []request) ([]func(*hh.Task) uint64, []load.ScenarioRun, error) {
	instances := map[string]load.ScenarioRun{}
	var runs []load.ScenarioRun
	fns := make([]func(*hh.Task) uint64, len(pool))
	for k, rq := range pool {
		sc, err := load.ByNameWith(spec.params, rq.scenario)
		if err != nil {
			return nil, nil, err
		}
		run := sc.Run
		if sc.NewRun != nil {
			inst, ok := instances[sc.Name]
			if !ok {
				inst = sc.NewRun(spec.size)
				instances[sc.Name] = inst
				runs = append(runs, inst)
			}
			run = inst.Run
		}
		seed, size := rq.seed, rq.size
		fns[k] = func(t *hh.Task) uint64 { return run(t, seed, size) }
	}
	return fns, runs, nil
}

// reference computes every pool request's checksum on the sequential
// runtime. It is untimed and counts in no metric.
func reference(spec servingSpec, pool []request, rep *report) {
	base := hh.ChunksInUse()
	r := hh.New(hh.WithMode(hh.Seq))
	fns, runs, err := bind(spec, pool)
	if err != nil {
		rep.violate("reference: %v", err)
		r.Close()
		return
	}
	for k := range pool {
		sum, err := r.Submit(hh.SessionOpts{}, fns[k]).Wait()
		if err != nil {
			rep.violate("reference request %d (%s): %v", k, pool[k].scenario, err)
		}
		pool[k].ref = sum
	}
	verify(runs, rep)
	r.Close()
	if got := hh.ChunksInUse(); got != base {
		rep.violate("reference runtime: %d chunks in use after Close, %d before New", got, base)
	}
}

// verify runs the stateful scenarios' oracles (txn serializability).
func verify(runs []load.ScenarioRun, rep *report) {
	for _, run := range runs {
		if err := run.Verify(); err != nil {
			rep.violate("oracle: %v", err)
		}
	}
}

// maxAttempts bounds how often one request is resubmitted after aborts
// before it counts as failed.
const maxAttempts = 10000

// closedLoop is one built serving system, the default runtime at P=2 and
// a server admitting as many requests as it has workers, driven by procs
// clients that each submit their next request only after the previous
// one completed.
type closedLoop struct {
	r      *hh.Runtime
	srv    *serve.Server
	fns    []func(*hh.Task) uint64
	runs   []load.ScenarioRun
	base   int64 // chunks in use before New
	newDur time.Duration

	pool  []request
	order []int         // the stream walks the pool in this order, cyclically
	next  atomic.Uint64 // stream position, continued across windows
}

func newClosedLoop(spec servingSpec, pool []request, order []int) (*closedLoop, error) {
	c := &closedLoop{base: hh.ChunksInUse(), pool: pool, order: order}
	t0 := time.Now()
	c.r = hh.New(hh.WithProcs(procs))
	c.newDur = time.Since(t0)
	c.srv = serve.New(c.r, serve.WithMaxInFlight(procs))
	var err error
	c.fns, c.runs, err = bind(spec, pool)
	if err != nil {
		c.r.Close()
		return nil, err
	}
	return c, nil
}

// counters snapshots the runtime's and the server's cumulative counters.
func (c *closedLoop) counters() tally {
	t := statsTally(c.r.Stats())
	t.add(serveTally(c.srv.Stats()))
	return t
}

// close drains the server, runs the oracles, checks the pin accounting,
// closes the runtime and checks that chunk occupancy is back at its
// baseline. It returns the Close time and the drained runtime's Stats.
func (c *closedLoop) close(rep *report) (time.Duration, hh.Stats) {
	c.srv.Drain()
	verify(c.runs, rep)
	st := c.r.Stats()
	if !st.Deferred.Balanced() {
		rep.violate("deferred pin accounting unbalanced: %+v", st.Deferred)
	}
	t0 := time.Now()
	c.r.Close()
	d := time.Since(t0)
	if got := hh.ChunksInUse(); got != c.base {
		rep.violate("%d chunks in use after Close, %d before New", got, c.base)
	}
	return d, st
}

// acc is one client's share of a window.
type acc struct {
	lat               hist
	last              time.Duration // latest completion, from the window start
	t                 tally
	attempted, failed int64
	errs              []string
}

func (a *acc) fail(format string, args ...any) {
	a.failed++
	if len(a.errs) < 3 {
		a.errs = append(a.errs, fmt.Sprintf(format, args...))
	}
}

// merge folds a client's share into the window and the report.
func (a *acc) merge(w *window, rep *report) {
	w.lat.merge(&a.lat)
	w.wall = max(w.wall, a.last)
	w.counts.add(a.t)
	rep.attempted += a.attempted
	rep.failed += a.failed
	for _, e := range a.errs {
		rep.violate("%s", e)
	}
}

// sweep runs every pool request once, in order: the warm-up, which also
// checks every reference checksum at least once per build.
func (c *closedLoop) sweep(rep *report) {
	var k atomic.Int64
	c.clients(rep, &window{counts: tally{}}, nil, false, func() (int, uint64, bool) {
		i := k.Add(1) - 1
		return int(i), uint64(i), i < int64(len(c.pool))
	})
}

// window runs the seeded stream for d and returns what it measured.
func (c *closedLoop) window(rep *report, d time.Duration, traced bool) window {
	w := window{traced: traced, counts: tally{}}
	before := c.counters()
	if traced {
		startTrace()
	}
	pc := &passClock{n: int64(len(c.pool))}
	deadline := time.Now().Add(d)
	c.clients(rep, &w, pc, traced, func() (int, uint64, bool) {
		i := c.next.Add(1) - 1
		return c.order[i%uint64(len(c.order))], i, time.Now().Before(deadline)
	})
	if traced {
		w.counts.add(stopTrace())
	}
	w.passes = pc.passes()
	w.counts.add(c.counters().sub(before))
	w.counts["passes"] = float64(w.lat.n) / float64(len(c.pool))
	return w
}

// clients runs procs client goroutines until next reports the stream is
// over, timing completions from the call; pc, when set, records the
// passes.
func (c *closedLoop) clients(rep *report, w *window, pc *passClock, traced bool,
	next func() (k int, i uint64, ok bool)) {

	start := time.Now()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for range procs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := acc{t: tally{}}
			for {
				k, i, ok := next()
				if !ok {
					break
				}
				end, ok := c.one(&a, k, i, traced)
				if !ok {
					continue
				}
				a.last = end.Sub(start)
				if pc != nil {
					pc.complete(a.last)
				}
			}
			mu.Lock()
			a.merge(w, rep)
			mu.Unlock()
		}()
	}
	wg.Wait()
}

// one submits pool request k as stream request i, waits for it, and
// returns when it completed and whether it was correct. An aborted
// transaction is resubmitted at once, without sleeping, and its latency
// runs from the first Submit to the commit.
func (c *closedLoop) one(a *acc, k int, i uint64, traced bool) (end time.Time, ok bool) {
	rq := &c.pool[k]
	a.attempted++
	var span uint64
	if traced {
		span = trace.Begin(-1, trace.EvRequest, 0, i)
	}
	begin := time.Now()
	outcome := uint32(1)
	for attempt := 1; ; attempt++ {
		t0 := time.Now()
		tk, err := c.srv.Submit(c.fns[k])
		a.t["submit_ns"] += float64(time.Since(t0))
		a.t["submits"]++
		if err != nil {
			a.fail("request %d (%s): submit: %v", i, rq.scenario, err)
			break
		}
		sum, err := tk.Wait()
		var ab *hh.AbortError
		if errors.As(err, &ab) && attempt < maxAttempts {
			a.t["aborts"]++
			a.t["rolled_back"] += float64(tk.WholesaleBytes())
			continue
		}
		if err != nil {
			a.fail("request %d (%s): %v", i, rq.scenario, err)
			break
		}
		if sum != rq.ref {
			a.fail("request %d (%s seed %d): checksum %#x, reference %#x", i, rq.scenario, rq.seed, sum, rq.ref)
			break
		}
		end = time.Now()
		a.lat.record(end.Sub(begin))
		a.t["commits"]++
		outcome, ok = 0, true
		break
	}
	trace.End(-1, trace.EvRequest, span, outcome, i)
	return end, ok
}

// runClosed runs a closed-loop serving workload:
// reference, set-ups, measured windows, teardown, metrics. With wire set,
// a traced run gives the last wireShare of its seconds to the wire leg.
func runClosed(o options, rep *report, spec servingSpec, wire bool) {
	pool, order := makePool(o.seed, spec)
	reference(spec, pool, rep)
	var leg *wireLeg
	if wire && o.trace {
		leg = newWireLeg(o.seed, rep)
	}
	if len(rep.violations) > 0 {
		return
	}
	if o.corruptRef {
		pool[0].ref ^= 1
	}

	var setups, news, closes []time.Duration
	var loop *closedLoop
	for s := range setupRuns {
		t0 := time.Now()
		var err error
		loop, err = newClosedLoop(spec, pool, order)
		if err != nil {
			rep.violate("%v", err)
			return
		}
		loop.sweep(rep)
		setups = append(setups, time.Since(t0))
		news = append(news, loop.newDur)
		if s < setupRuns-1 {
			d, _ := loop.close(rep)
			closes = append(closes, d)
		}
	}
	if len(rep.violations) > 0 {
		loop.close(rep)
		return
	}

	windows := o
	var wireDur time.Duration
	if leg != nil {
		wireDur = time.Duration(o.seconds * wireShare * float64(time.Second))
		windows.seconds -= wireDur.Seconds()
	}
	plan := windowPlan(windows, servingWindows)
	var ws []window
	for _, traced := range plan {
		ws = append(ws, loop.window(rep, windowDur(windows, plan), traced))
	}
	var wireCounts tally
	if leg != nil {
		wireCounts = leg.run(rep, loop.srv, wireDur)
	}
	d, st := loop.close(rep)
	closes = append(closes, d)
	if !o.trace {
		endToEnd(rep, ws, st.PeakMem, setups)
		return
	}
	perLayer(rep, ws, layerInputs{
		news:   news,
		closes: closes,
		gauges: tally{
			"max_concurrent_zones": float64(st.Zones.MaxConcurrent),
			"pins_live":            float64(st.Deferred.Live),
		},
		gaugeRuns: 1,
		wire:      wireCounts,
	})
}

// serve-mix: the promotion-heavy mutable-state requests through hh/serve;
// its traced run ends with the wire leg.
func runServeMix(o options, rep *report) {
	runClosed(o, rep, servingSpec{names: []string{"kv", "kv", "bfs", "hist", "fan"}, size: 1200, pool: 1000}, true)
}

// txn-hot: short optimistic transactions on a 16-key store; about one
// attempt in six aborts and is rolled back by wholesale reclamation.
func runTxnHot(o options, rep *report) {
	runClosed(o, rep, servingSpec{names: []string{"txn"}, params: load.Params{TxnKeys: 16}, size: 1200, pool: 2000}, false)
}

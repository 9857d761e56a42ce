package main

import (
	"cmp"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/hh"
	"repro/hh/serve"
	"repro/internal/trace"
)

// tally is a set of named cumulative counts. Runtime, server and front-end
// counters are read into one before and after a window and subtracted;
// the benchmark adds its own tallies (Submit time, aborts, spans) to the
// same map, so windows sum with one operation.
type tally map[string]float64

func (t tally) add(o tally) {
	for k, v := range o {
		t[k] += v
	}
}

func (t tally) sub(o tally) tally {
	d := tally{}
	for k, v := range t {
		d[k] = v - o[k]
	}
	return d
}

// div returns t[num]/t[den], or 0 when the denominator is 0.
func (t tally) div(num, den string) float64 { return ratio(t[num], t[den]) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// statsTally reads the cumulative counters of a runtime's Stats.
func statsTally(st hh.Stats) tally {
	o := &st.Ops
	return tally{
		"steals":             float64(st.Steals),
		"gc_ns":              float64(st.GCNanos),
		"ptr_writes":         float64(o.PtrWrites()),
		"fast_writes":        float64(o.WritePtrFast + o.WritePtrAncestor),
		"promotions":         float64(o.Promotions),
		"promoted_words":     float64(o.PromotedWords),
		"climbs":             float64(o.PromoteClimbs),
		"climb_locked":       float64(o.ClimbLockedHeaps),
		"promote_ns":         float64(o.PromoteNanos),
		"read_mut_fast":      float64(o.ReadMutFast),
		"read_mut_slow":      float64(o.ReadMutSlow),
		"findmaster_retries": float64(o.FindMasterRetries),
		"pins":               float64(st.Deferred.Pins),
		"zones":              float64(st.Zones.Zones),
		"leaf_zones":         float64(st.Zones.LeafZones),
		"join_zones":         float64(st.Zones.JoinZones),
		"zone_words":         float64(st.Zones.WordsCopied),
		"overlap_ns":         float64(st.Zones.OverlapNanos),
		"acquires":           float64(st.Alloc.Acquires + st.Alloc.Oversize),
		"cache_hits":         float64(st.Alloc.CacheHits),
		"pool_hits":          float64(st.Alloc.PoolHits),
		"fresh_chunks":       float64(st.Alloc.FreshChunks + st.Alloc.Oversize),
		"dirids":             float64(st.Alloc.DirIDOps),
		"zeroed_words":       float64(st.Alloc.ZeroedWords),
		"shard_steals":       float64(st.Alloc.ShardSteals),
		"wholesale_bytes":    float64(st.Sessions.WholesaleBytes),
	}
}

// serveTally reads a server's cumulative counters.
func serveTally(ss serve.ServeStats) tally {
	return tally{
		"srv_rejected":   float64(ss.Rejected),
		"srv_queue_ns":   float64(ss.QueueWaitTotal),
		"srv_latency_ns": float64(ss.LatencySum),
		"srv_completed":  float64(ss.Completed),
	}
}

// spanTally aggregates a traced window's flight-recorder snapshot: the
// benchmark's request spans and the runtime's queue, session, zone and
// climb spans, summed per kind. covered_ns is the part of the queue, zone
// and climb spans that falls inside request spans, and events counts the
// events inside them, so work outside every request (a forkjoin program's
// input construction and check) is charged to no request. orphan_ends
// counts End events whose Begin the snapshot lacks: a ring wrapped and
// lost the window's oldest events.
func spanTally(s *trace.Snapshot) tally {
	t := tally{}
	if s == nil {
		return t
	}
	var reqs, kids []interval // request spans; queue, zone and climb spans
	begins := map[uint64]trace.Event{}
	for _, e := range s.Events {
		switch e.Phase {
		case trace.PhaseBegin:
			begins[e.Span] = e
		case trace.PhaseEnd:
			b, ok := begins[e.Span]
			if !ok {
				t["orphan_ends"]++
				continue
			}
			delete(begins, e.Span)
			iv := interval{b.Nanos, e.Nanos}
			dur := float64(iv.hi - iv.lo)
			switch b.Type {
			case trace.EvRequest:
				t["request_spans"]++
				t["request_span_ns"] += dur
				reqs = append(reqs, iv)
			case trace.EvQueue:
				t["queue_span_ns"] += dur
				kids = append(kids, iv)
			case trace.EvSession:
				t["session_spans"]++
				t["session_span_ns"] += dur
			case trace.EvZone:
				t["zone_span_ns"] += dur
				kids = append(kids, iv)
			}
		case trace.PhaseComplete:
			if e.Type == trace.EvClimb { // begins at Nanos; the span word is the duration
				t["climb_span_ns"] += float64(e.Span)
				kids = append(kids, interval{e.Nanos, e.Nanos + int64(e.Span)})
			}
		case trace.PhaseInstant:
			switch e.Type {
			case trace.EvClimb: // coalesced short climbs, ending now: total nanos in the high word
				d := int64(e.Arg >> 32)
				t["climb_span_ns"] += float64(d)
				kids = append(kids, interval{e.Nanos - d, e.Nanos})
			case trace.EvPoolRefill, trace.EvPoolSteal:
				t["pool_refills"]++
			}
		}
	}
	in := union(reqs)
	for _, k := range kids {
		t["covered_ns"] += float64(overlap(in, k))
	}
	for _, e := range s.Events {
		if overlap(in, interval{e.Nanos, e.Nanos + 1}) > 0 {
			t["events"]++
		}
	}
	return t
}

// interval is a stretch of recorder time, in nanoseconds.
type interval struct{ lo, hi int64 }

// union returns the disjoint, sorted intervals covering ivs.
func union(ivs []interval) []interval {
	slices.SortFunc(ivs, func(a, b interval) int { return cmp.Compare(a.lo, b.lo) })
	var out []interval
	for _, iv := range ivs {
		if n := len(out); n > 0 && iv.lo <= out[n-1].hi {
			out[n-1].hi = max(out[n-1].hi, iv.hi)
			continue
		}
		out = append(out, iv)
	}
	return out
}

// overlap returns how much of iv the sorted disjoint intervals in cover.
func overlap(in []interval, iv interval) int64 {
	i, _ := slices.BinarySearchFunc(in, iv.lo, func(u interval, lo int64) int { return cmp.Compare(u.hi, lo+1) })
	var n int64
	for ; i < len(in) && in[i].lo < iv.hi; i++ {
		n += max(0, min(iv.hi, in[i].hi)-max(iv.lo, in[i].lo))
	}
	return n
}

// traceRingEvents sizes each flight-recorder ring. The fullest ring seen,
// the shared one in txn-hot, took about 190,000 events a second on a
// 2-vCPU VM, or a third of its size in one traced window. A run whose
// rings wrap says so in a note above its metrics. trace.Start allocates
// the rings afresh for every traced window, 3 × 2^18 slots of 40 bytes
// (about 31 MB) on the Go heap the runtime under test shares, so
// trace.overhead_frac includes that allocation.
const traceRingEvents = 1 << 18

// startTrace installs the flight recorder for a traced window.
func startTrace() {
	trace.Start(procs, traceRingEvents)
}

// stopTrace snapshots and uninstalls the recorder, returning the window's
// span totals.
func stopTrace() tally {
	t := spanTally(trace.TakeSnapshot())
	trace.Stop()
	return t
}

// window is what one measured stretch of a run produced.
type window struct {
	traced bool
	wall   time.Duration   // window start to the last completion
	lat    hist            // latency of every correct request
	passes []time.Duration // wall time of each complete pass
	counts tally           // counter deltas and the benchmark's tallies
}

// hist is a log-linear latency histogram with buckets 0.5% wide. Its
// memory is fixed, so recording allocates nothing and the benchmark's own
// heap does not grow with the run: the pace of the Go collector, which the
// runtime under test shares, stays that of the system alone.
type hist struct {
	counts [histBuckets]int64
	n      int
	sum    time.Duration
}

const (
	histGrowth  = 1.005
	histBuckets = 4608 // the last bucket starts near 10 s
)

var logGrowth = math.Log(histGrowth)

func (h *hist) record(d time.Duration) {
	b := 0
	if d >= 1 {
		b = min(int(math.Log(float64(d))/logGrowth), histBuckets-1)
	}
	h.counts[b]++
	h.n++
	h.sum += d
}

func (h *hist) merge(o *hist) {
	for b, c := range o.counts {
		h.counts[b] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the q-quantile by nearest rank, interpolated within
// its bucket.
func (h *hist) quantile(q float64) time.Duration {
	rank := max(1, int(math.Ceil(q*float64(h.n))))
	seen := 0
	for b, c := range h.counts {
		if seen+int(c) >= rank {
			lo := math.Pow(histGrowth, float64(b))
			return time.Duration(lo + lo*(histGrowth-1)*(float64(rank-seen)-0.5)/float64(c))
		}
		seen += int(c)
	}
	return 0
}

// passClock records when each pass of n completions ended.
type passClock struct {
	n    int64
	done atomic.Int64
	mu   sync.Mutex
	ends []time.Duration
}

func (p *passClock) complete(at time.Duration) {
	if p.done.Add(1)%p.n == 0 {
		p.mu.Lock()
		p.ends = append(p.ends, at)
		p.mu.Unlock()
	}
}

// passes returns each complete pass's wall time.
func (p *passClock) passes() []time.Duration {
	slices.Sort(p.ends)
	out := make([]time.Duration, len(p.ends))
	prev := time.Duration(0)
	for i, end := range p.ends {
		out[i] = end - prev
		prev = end
	}
	return out
}

func median[T cmp.Ordered](xs []T) T {
	if len(xs) == 0 {
		var zero T
		return zero
	}
	xs = slices.Clone(xs)
	slices.Sort(xs)
	return xs[(len(xs)-1)/2]
}

// tailQ is the percentile reported as latency_p99_ms: 0.99, or the
// highest percentile that leaves ten samples beyond it when the window
// has fewer than a thousand, but never below the median.
func tailQ(n int) float64 {
	if n == 0 {
		return 0.99
	}
	return math.Max(0.5, math.Min(0.99, 1-10/float64(n)))
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEnd reports the end-to-end metrics of an untraced run. Throughput
// and the latency percentiles are medians of the windows' own, so
// interference that lasts less than half the run moves none of them.
func endToEnd(rep *report, ws []window, peakBytes int64, setups []time.Duration) {
	var thr, p50, tail []float64
	var passes []time.Duration
	n, q := 0, 0.99
	for _, w := range ws {
		wq := tailQ(w.lat.n)
		thr = append(thr, ratio(float64(w.lat.n), w.wall.Seconds()))
		p50 = append(p50, msOf(w.lat.quantile(0.5)))
		tail = append(tail, msOf(w.lat.quantile(wq)))
		passes = append(passes, w.passes...)
		n += w.lat.n
		q = min(q, wq)
	}
	rep.add("throughput_rps", "1/s", median(thr), n)
	rep.add("latency_p50_ms", "ms", median(p50), n)
	rep.add("latency_p99_ms", "ms", median(tail), n)
	rep.add("run_s", "s", median(passes).Seconds(), len(passes))
	rep.add("peak_mem_mb", "MB", float64(peakBytes)/(1<<20), 1)
	rep.add("setup_s", "s", median(setups).Seconds(), len(setups))
	if q < 0.99 {
		rep.note("latency_p99_ms is the p%.1f or above of each of %d windows, %d samples in all", 100*q, len(ws), n)
	}
}

// layerInputs is what a workload hands perLayer besides its windows.
type layerInputs struct {
	news, closes []time.Duration            // every timed hh.New and Close
	gauges       tally                      // end-of-run values: max_concurrent_zones, pins_live
	gaugeRuns    int                        // how many runs the gauges were read from
	programs     map[string][]time.Duration // forkjoin: each program's timed phases
	wire         tally                      // serve-mix: the wire leg's counts
}

// perLayer reports the per-layer metrics of a traced run. Counts come
// from the untraced windows, span times from the traced ones.
func perLayer(rep *report, ws []window, in layerInputs) {
	u, t := tally{}, tally{}
	var uLat, tLat time.Duration
	var uN, tN int
	for _, w := range ws {
		if w.traced {
			t.add(w.counts)
			tLat += w.lat.sum
			tN += w.lat.n
		} else {
			u.add(w.counts)
			u["wall_ns"] += float64(w.wall)
			uLat += w.lat.sum
			uN += w.lat.n
		}
	}
	req, treq := float64(uN), float64(tN)
	per := func(k string) float64 { return ratio(u[k], req) }
	add := rep.add

	served := int(u["srv_completed"])
	add("serve.submit_us", "us", u.div("submit_ns", "submits")/1e3, int(u["submits"]))
	add("serve.queue_wait_frac", "ratio", u.div("srv_queue_ns", "srv_latency_ns"), served)
	add("serve.rejected", "count", u["srv_rejected"], served)

	add("rts.session_us", "us",
		ratio(t["session_span_ns"]-t["zone_span_ns"]-t["climb_span_ns"], t["session_spans"])/1e3,
		int(t["session_spans"]))
	add("rts.wholesale_kb_per_req", "KB/req", per("wholesale_bytes")/1024, uN)
	add("rts.gc_frac", "ratio", ratio(u["gc_ns"], procs*u["wall_ns"]), uN)
	add("rts.abort_ratio", "ratio", ratio(u["aborts"], u["aborts"]+u["commits"]), int(u["aborts"]+u["commits"]))
	add("rts.rollback_kb_per_abort", "KB", u.div("rolled_back", "aborts")/1024, int(u["aborts"]))
	add("rts.new_ms", "ms", msOf(median(in.news)), len(in.news))
	add("rts.close_ms", "ms", msOf(median(in.closes)), len(in.closes))

	add("sched.steals_per_req", "1/req", per("steals"), uN)
	add("sched.steals_per_pass", "1/pass", u.div("steals", "passes"), int(u["passes"]))

	add("core.ptr_writes_per_req", "1/req", per("ptr_writes"), uN)
	add("core.barrier_fast_frac", "ratio", u.div("fast_writes", "ptr_writes"), uN)
	add("core.promotions_per_req", "1/req", per("promotions"), uN)
	add("core.promoted_kb_per_req", "KB/req", per("promoted_words")*8/1024, uN)
	add("core.writes_per_climb", "count", u.div("promotions", "climbs"), int(u["climbs"]))
	add("core.climb_lock_depth", "count", u.div("climb_locked", "climbs"), int(u["climbs"]))
	add("core.promote_ms_per_req", "ms/req", per("promote_ns")/1e6, uN)
	add("core.climb_ms_per_req", "ms/req", ratio(t["climb_span_ns"], treq)/1e6, tN)
	add("core.read_mut_slow_frac", "ratio", ratio(u["read_mut_slow"], u["read_mut_fast"]+u["read_mut_slow"]), uN)
	add("core.findmaster_retries", "count", u["findmaster_retries"], uN)

	add("heap.pins_per_req", "1/req", per("pins"), uN)
	add("heap.pins_live_end", "count", in.gauges["pins_live"], in.gaugeRuns)

	add("gc.zones_per_req", "1/req", per("zones"), uN)
	add("gc.zone_ms_per_req", "ms/req", ratio(t["zone_span_ns"], treq)/1e6, tN)
	add("gc.words_copied_per_req", "words/req", per("zone_words"), uN)
	add("gc.zone_overlap_ms", "ms", u["overlap_ns"]/1e6, uN)
	add("gc.max_concurrent_zones", "count", in.gauges["max_concurrent_zones"], in.gaugeRuns)
	add("gc.leaf_zones", "count", u["leaf_zones"], uN)
	add("gc.join_zones", "count", u["join_zones"], uN)

	add("mem.acquires_per_req", "1/req", per("acquires"), uN)
	add("mem.cache_hit_frac", "ratio", u.div("cache_hits", "acquires"), int(u["acquires"]))
	add("mem.pool_hit_frac", "ratio", u.div("pool_hits", "acquires"), int(u["acquires"]))
	add("mem.fresh_chunks", "count", u["fresh_chunks"], uN)
	add("mem.dirids_per_req", "1/req", per("dirids"), uN)
	add("mem.zeroed_kwords_per_req", "kwords/req", per("zeroed_words")/1e3, uN)
	add("mem.shard_steals", "count", u["shard_steals"], uN)
	add("mem.pool_refills", "count", t["pool_refills"], tN)

	wire := in.wire
	wireSent := int(wire["sent"])
	add("netserve.rtt_us", "us", wire.div("rtt_ns", "rtts")/1e3, int(wire["rtts"]))
	add("netserve.frames_per_req", "1/req", wire.div("frames", "ok"), int(wire["ok"]))
	add("netserve.sheds", "count", wire["sheds"], wireSent)
	add("netserve.proto_errors", "count", wire["proto_errors"], wireSent)

	add("load.late_frac", "ratio", wire.div("late", "sent"), wireSent)
	add("load.retries_per_commit", "1/req", u.div("aborts", "commits"), int(u["commits"]))

	for _, p := range forkjoinPrograms {
		xs := in.programs[p.name]
		add("bench."+p.metric+"_s", "s", median(xs).Seconds(), len(xs))
	}

	add("trace.events", "1/req", ratio(t["events"], treq), tN)
	overhead := 0.0
	if uN > 0 && tN > 0 {
		overhead = (float64(tLat)/treq)/(float64(uLat)/req) - 1
	}
	add("trace.overhead_frac", "ratio", overhead, uN+tN)
	add("trace.unattributed_frac", "ratio",
		math.Max(0, 1-t.div("covered_ns", "request_span_ns")), int(t["request_spans"]))
	if n := t["orphan_ends"]; n > 0 {
		rep.note("a flight-recorder ring wrapped: %.0f span ends lost their begin, so the span metrics undercount", n)
	}
}

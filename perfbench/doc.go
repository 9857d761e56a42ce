// Command perfbench is the repository's benchmark: one seeded run of one
// workload on the default ParMem runtime (hh.New at P=2: eager barrier
// with fast paths, promotion batching, the chunk pool), with every
// output checked. Run it from the root of a checkout:
//
//	bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 30 --trace 0
//
// run.sh builds the command into .bench_build and runs it. The last line
// of standard output is one JSON object with the keys correct, attempted,
// failed and metrics; the lines above it print each metric with its unit
// and sample count, after a header line stamped with the commit, nproc,
// GOMAXPROCS, the Go version and the seed. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 they are the per-layer ones.
//
// # Workloads
//
//   - serve-mix: a closed loop of 2 clients through hh/serve
//     (WithMaxInFlight(2)), mix kv=2,bfs=1,hist=1,fan=1 at size 1200. The
//     promotion-heavy mutable-state requests; fan is the only user of
//     batched WritePtrs. The write barrier and promotion do the work; at
//     the default collection policy these requests trigger no zone
//     collection.
//   - txn-hot: the same closed loop over txn requests on a 16-key store.
//     Each request is about 50 µs, so serve admission, session submit and
//     wholesale reclaim, and chunk recycling dominate; about one attempt
//     in six aborts, and an aborted request is resubmitted at once, with
//     no sleep, its latency running from the first Submit to the commit.
//   - forkjoin: passes over the paper's imperative suite (msort, dedup,
//     tourney, reachability, usp-tree) at the internal/bench default
//     scales, each program on a fresh ParMem runtime at P=2 in the steps
//     of bench.Run (the benchmark repeats them so that it can time New
//     and Close and span the timed phase alone). A request is one pass,
//     timed by the programs' bench.Result.Elapsed.
//
// The serving workloads draw their requests from a pool that holds the
// mix in exact proportion: 1000 requests for serve-mix, 2000 for
// txn-hot. The seed sets each request's seed and the order in which the
// stream walks the pool; a pass is one walk. A request's cost depends on
// its seed, so the pool is large enough that its mean cost is about the
// same for every seed: with 200 requests, serve-mix's p50 varied by 15%
// between seeds but by 4% between runs of one seed. The forkjoin inputs
// are the suite's own; the seed orders each pass.
//
// An untraced serving run measures five equal windows back to back on
// one system and reports the medians of the windows' throughput, p50 and
// p99, so a burst of interference from elsewhere on the machine moves a
// metric only if it lasts through most of the run.
//
// A fourth workload, hist requests over loopback TCP to netserve, was
// tried and left out as a workload of its own. On a 2-vCPU VM its
// open-loop p99 latency varied between runs of one seed by 50% to 200%
// of the median, and a closed loop's throughput by 15% to 40%, so no
// end-to-end bound could hold it. The netserve layer is measured instead
// by the wire leg that ends serve-mix's traced run: RUN hist <seed> 600
// over two pre-dialed loopback connections to an in-process
// netserve.Serve on serve-mix's own server, sent open loop at a steady
// 2000 requests per second, about half of what the two connections
// complete back to back. It takes the last fifth of the run's seconds,
// after a warm-up that sends every request of its 200-request pool once.
// Latency there is charged from the intended send time by load.OpenLoop,
// and the connections hang up without QUIT.
//
// # Correctness gate
//
// Before the measured phase every pool request (every suite program, and
// the wire leg's pool) is run on the Seq runtime, untimed, for a
// reference checksum. A run prints no metrics and exits 1 when any
// response differs from its reference, any request fails or is shed, the
// txn serializability oracle fails, hh.ChunksInUse is not back at its
// baseline after Close, the deferred pin accounting is not balanced, or
// the netserve front end counted a protocol error. An aborted
// transaction that later commits is not a failure.
//
// # Set-up
//
// setup_s is the median of five set-ups. A serving set-up is hh.New,
// serve.New, the request bodies and txn store, and a warm-up that runs
// every pool request once, which fills the worker chunk caches and the
// pool and checks every reference. A forkjoin set-up is one warm-up
// pass. All but the last set-up are torn down and checked.
//
// # Traced run
//
// --trace 1 alternates half-second untraced and traced windows. Counts
// come from Stats deltas (Runtime.Stats, Server.Stats) over the untraced
// windows, and the netserve and load.late_frac metrics from
// Frontend.Counters deltas and the generator over serve-mix's wire leg.
// Metrics marked † come from the flight recorder in the traced windows:
// the benchmark's own request spans (trace.EvRequest, from Submit to
// Wait, or around a forkjoin program's timed phase) and the runtime's
// queue-wait, session, zone-collect, promote-climb and pool-refill
// events. A layer's self time is its span time minus its child spans.
// trace.unattributed_frac is the share of request time covered by no
// queue, zone or climb span, counting only the part of those spans that
// falls inside request spans; trace.events counts the events inside
// request spans. trace.overhead_frac is the mean request time of traced
// windows over that of untraced ones, minus one; it includes the cost of
// the fresh 31 MB of rings trace.Start allocates for each traced window.
// A run whose rings wrap prints a note above its metrics.
//
// A metric a workload does not measure is printed as 0 with a sample
// count of 0.
//
// # Layers and what they should move
//
//	layer     per-layer metrics                                      should move                     works in / idle in
//	hh/serve  serve.submit_us, queue_wait_frac, rejected             throughput_rps, latency_p50_ms  txn-hot / forkjoin
//	rts       rts.session_us†, wholesale_kb_per_req, gc_frac,        throughput_rps (txn-hot),       txn-hot / -
//	          abort_ratio, rollback_kb_per_abort, new_ms, close_ms   setup_s
//	sched     sched.steals_per_req, steals_per_pass                  run_s                           forkjoin / -
//	core      core.ptr_writes_per_req, barrier_fast_frac,            latency_p50_ms, throughput_rps  serve-mix, forkjoin / -
//	          promotions_per_req, promoted_kb_per_req,               (serve-mix); run_s (usp-tree)
//	          writes_per_climb, climb_lock_depth,
//	          promote_ms_per_req, climb_ms_per_req†,
//	          read_mut_slow_frac, findmaster_retries
//	heap      heap.pins_per_req, pins_live_end (0 while the          peak_mem_mb, latency_p50_ms     serve-mix / all at the default
//	          barrier is eager)
//	gc        gc.zones_per_req, zone_ms_per_req†,                    run_s, peak_mem_mb              forkjoin / serve-mix, txn-hot
//	          words_copied_per_req, zone_overlap_ms,
//	          max_concurrent_zones, leaf_zones, join_zones
//	mem       mem.acquires_per_req, cache_hit_frac, pool_hit_frac,   throughput_rps (txn-hot),       txn-hot / -
//	          fresh_chunks, dirids_per_req, zeroed_kwords_per_req,   peak_mem_mb
//	          shard_steals, pool_refills†
//	netserve  netserve.rtt_us, frames_per_req, sheds, proto_errors   latency of the wire leg         serve-mix (traced) / others
//	load      load.late_frac, retries_per_commit                     validity of the wire leg and    serve-mix (traced), txn-hot /
//	                                                                 txn-hot                         forkjoin
//	bench     bench.msort_s, dedup_s, tourney_s, reachability_s,     run_s                           forkjoin / others
//	          usp_tree_s
//	trace     trace.events†, overhead_frac, unattributed_frac†       (observability)                 all
//
// With 2 clients on 2 CPUs, CPU freed anywhere on a closed-loop request's
// path raises throughput_rps. Stalls such as zone collections show in
// latency_p99_ms before they show in the median. A larger chunk cache or
// more pinning can raise peak_mem_mb while lowering latency: read both.
package main

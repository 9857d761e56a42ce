package main

import (
	"context"
	"errors"
	"net"
	"sync"
	"time"

	"repro/hh/serve"
	"repro/hh/serve/netserve"
	"repro/internal/load"
)

// The wire leg ends the measured phase of a traced serve-mix run: hist
// requests over loopback TCP to an in-process netserve front end on the
// workload's own server, one pre-dialed connection per worker, sent open
// loop at a fixed rate. It is the benchmark's only path through netserve.
// Its numbers are per-layer metrics only: its latency varies too much
// from run to run to carry an end-to-end bound on a 2-vCPU machine.
var wireSpec = servingSpec{names: []string{"hist"}, size: 600, pool: 200}

const (
	// wireRate is the leg's steady arrival rate in requests per second.
	// Sent back to back, the two connections complete about 4500 hist
	// requests per second on a 2-vCPU VM; half of that keeps the leg's
	// latency mostly service, not queueing.
	wireRate = 2000.0
	// wireShare is the leg's share of a traced serve-mix run's seconds.
	wireShare = 0.2
)

// wireSalt separates the wire pool's seeds from the serve-mix pool's.
const wireSalt = 0x77697265

var errChecksum = errors.New("checksum differs from the reference")

// wireLeg is the leg's request pool, with reference checksums.
type wireLeg struct {
	pool  []request
	order []int
}

// newWireLeg generates the leg's pool from the seed and computes its
// references. It must run while no other runtime is open.
func newWireLeg(seed uint64, rep *report) *wireLeg {
	pool, order := makePool(seed^wireSalt, wireSpec)
	reference(wireSpec, pool, rep)
	return &wireLeg{pool: pool, order: order}
}

// run serves the leg for about d through a front end on srv: a warm-up
// in which each connection sends its share of the pool once, then the
// open loop. Connections hang up without QUIT. It returns the leg's
// counts: front-end counter deltas over the open loop, the generator's
// late starts, and the timed Client.Run round trips.
func (l *wireLeg) run(rep *report, srv *serve.Server, d time.Duration) tally {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rep.violate("wire leg: %v", err)
		return nil
	}
	fe := netserve.Serve(lis, srv, netserve.Config{Resolve: netserve.LoadResolver()})
	var clients []*netserve.Client
	for range procs {
		c, err := netserve.Dial(fe.Addr().String())
		if err != nil {
			rep.violate("wire leg: %v", err)
			break
		}
		clients = append(clients, c)
	}
	accs := make([]acc, procs)
	for s := range accs {
		accs[s].t = tally{}
	}
	t := tally{}
	if len(clients) == procs {
		var wg sync.WaitGroup
		for s := range procs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := s; k < len(l.pool); k += procs {
					l.one(&accs[s], clients[s], k, uint64(k))
				}
			}()
		}
		wg.Wait()
		for s := range accs {
			accs[s].t = tally{} // round trips of the open loop only
		}
		before := fe.Counters()
		res := load.OpenLoop(int(wireRate*d.Seconds()), procs, load.SteadyShape{Rate: wireRate},
			func(s int, i uint64) load.OpenOutcome {
				return l.one(&accs[s], clients[s], l.order[i%uint64(len(l.order))], i)
			})
		after := fe.Counters()
		t["sent"] = float64(res.Sent)
		t["ok"] = float64(res.OK)
		t["late"] = float64(res.LateStarts)
		t["frames"] = float64(after.Frames - before.Frames)
		for reason, n := range after.Sheds {
			t["sheds"] += float64(n - before.Sheds[reason])
		}
	}
	for _, c := range clients {
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := fe.Drain(ctx); err != nil {
		rep.violate("wire leg: front end drain: %v", err)
	}
	if n := fe.Counters().ProtoErrors; n != 0 {
		t["proto_errors"] = float64(n)
		rep.violate("wire leg: the front end counted %d protocol errors", n)
	}
	w := window{counts: tally{}}
	for s := range accs {
		accs[s].merge(&w, rep)
	}
	t.add(w.counts)
	return t
}

// one sends pool request k as stream request i on c and checks the reply.
// A shed, an error and a checksum that differs from the reference are
// failures.
func (l *wireLeg) one(a *acc, c *netserve.Client, k int, i uint64) load.OpenOutcome {
	rq := &l.pool[k]
	a.attempted++
	t0 := time.Now()
	sum, shed, _, err := c.Run(rq.scenario, rq.seed, rq.size)
	a.t["rtt_ns"] += float64(time.Since(t0))
	a.t["rtts"]++
	switch {
	case err != nil:
		a.fail("wire request %d (%s): %v", i, rq.scenario, err)
		return load.OpenOutcome{Err: err}
	case shed:
		a.fail("wire request %d (%s): shed", i, rq.scenario)
		return load.OpenOutcome{Shed: true}
	case sum != rq.ref:
		a.fail("wire request %d (%s seed %d): checksum %#x, reference %#x", i, rq.scenario, rq.seed, sum, rq.ref)
		return load.OpenOutcome{Err: errChecksum}
	}
	return load.OpenOutcome{OK: true, Checksum: sum}
}

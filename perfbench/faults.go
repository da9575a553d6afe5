package main

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/gateway"
	"repro/internal/network"
	"repro/internal/query"
	"repro/internal/share"
	"repro/internal/topology"
	"repro/perfbench/oracle"
)

// runFaults replays the two known faults on fixed inputs and prints the
// oracle's verdicts, each next to a control run with the fault's trigger
// removed. It reports and never asserts, so it keeps working once a fault
// is mended.
func runFaults(out io.Writer) error {
	fmt.Fprintln(out, "F1: the tier-2 sleep rule drops contributions (PaperGrid(8), seed 1, both queries posted at t=0)")
	for _, c := range []struct {
		label  string
		scheme network.Scheme
		sleep  bool
	}{
		{"ttmqo", network.TTMQO, true},
		{"in-network", network.InNetworkOnly, true},
		{"baseline", network.Baseline, false},
		{"base-station", network.BSOnly, false},
		{"ttmqo, sleep off (control)", network.TTMQO, false},
	} {
		t, err := f1Run(c.scheme, c.sleep)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "  %-28s %s\n", c.label+":", t.Summary())
	}
	fmt.Fprintln(out, "F2: the router's upstream session takes the per-client token bucket (40 sessions, one distinct query each)")
	for _, c := range []struct {
		label  string
		router bool
	}{
		{"router, 2 shards", true},
		{"single gateway (control)", false},
	} {
		refused, err := f2Admission(c.router)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "  %-28s subscribes=%d refused=%d\n", c.label+":", len(f2Queries()), refused)
	}
	for _, c := range []struct {
		label  string
		router bool
	}{
		{"share over router", true},
		{"share over gateway (control)", false},
	} {
		t, refused, err := f2Share(c.router)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "  %-28s refused=%d %s\n", c.label+":", refused, t.Summary())
	}
	return nil
}

var f1Queries = []string{
	"SELECT COUNT(temp) WHERE nodeid >= 2 AND nodeid <= 8 EPOCH DURATION 20480",
	"SELECT nodeid, light, temp WHERE nodeid >= 1 AND nodeid <= 8 AND light >= 27.796046551127553 AND light <= 867.6330653253676 EPOCH DURATION 8192",
}

// f1Run posts the F1 pair into one simulation and checks every delivered
// epoch until 61.44 s have been delivered.
func f1Run(scheme network.Scheme, sleep bool) (*oracle.Tally, error) {
	const side, seed = 8, 1
	topo, err := topology.PaperGrid(side)
	if err != nil {
		return nil, err
	}
	pol := scheme.Policy()
	pol.Sleep = sleep
	s, err := network.New(network.Config{Topo: topo, Scheme: scheme, Seed: seed, DiscardResults: true, PolicyOverride: &pol})
	if err != nil {
		return nil, err
	}
	world, err := oracle.NewWorld(side, 1, seed)
	if err != nil {
		return nil, err
	}
	streams := map[query.ID]*oracle.Stream{}
	seq := map[query.ID]uint64{}
	tally := &oracle.Tally{}
	check := func(qid query.ID, e oracle.Epoch) {
		seq[qid]++
		e.Seq = seq[qid]
		tally.Add(streams[qid].Check(world, e))
	}
	s.Results().OnRows = func(ur core.UserRows) {
		check(ur.QueryID, oracle.Epoch{At: ur.Time, Rows: appendRows(nil, ur.Rows)})
	}
	s.Results().OnAggs = func(ua core.UserAgg) {
		check(ua.QueryID, oracle.Epoch{At: ua.Time, Aggs: appendAggs(nil, ua.Results)})
	}
	for _, text := range f1Queries {
		q := query.MustParse(text)
		id, err := s.Post(q)
		if err != nil {
			return nil, err
		}
		streams[id] = oracle.NewStream(q)
	}
	s.Run(64 * time.Second)
	return tally, nil
}

// f2Queries are 40 distinct whole-field aggregates: each spans both shards
// of a two-shard router.
func f2Queries() []query.Query {
	qs := make([]query.Query, 40)
	for i := range qs {
		qs[i] = query.MustParse(fmt.Sprintf("SELECT COUNT(light) WHERE light >= %d EPOCH DURATION 4096", 10*i))
	}
	return qs
}

// f2Upstream builds the default two-shard router or, as the control, one
// gateway over a single PaperGrid with the same sensor count per shard.
func f2Upstream(router bool) (share.Upstream, *oracle.World, func(), error) {
	const seed = 1
	if router {
		rt, err := federation.New(federation.Config{Shards: 2, Seed: seed})
		if err != nil {
			return nil, nil, nil, err
		}
		w, err := oracle.NewWorld(federation.DefaultSide, 2, seed)
		return share.OverRouter(rt), w, func() { _ = rt.Close() }, err
	}
	topo, err := topology.PaperGrid(federation.DefaultSide)
	if err != nil {
		return nil, nil, nil, err
	}
	gw, err := gateway.New(gateway.Config{Sim: network.Config{Topo: topo, Scheme: network.TTMQO, Seed: seed}})
	if err != nil {
		return nil, nil, nil, err
	}
	w, err := oracle.NewWorld(federation.DefaultSide, 1, seed)
	return share.OverGateway(gw), w, func() { _ = gw.Close() }, err
}

// f2Admission subscribes the F2 queries from 40 sessions straight on the
// upstream tier and counts refusals.
func f2Admission(router bool) (int, error) {
	up, _, closeUp, err := f2Upstream(router)
	if err != nil {
		return 0, err
	}
	defer closeUp()
	var tickets []share.UpstreamTicket
	for i, q := range f2Queries() {
		s, err := up.Register(fmt.Sprintf("client-%d", i))
		if err != nil {
			return 0, err
		}
		tk, err := s.SubscribeAsync(q)
		if err != nil {
			return 0, err
		}
		tickets = append(tickets, tk)
	}
	if _, err := up.Advance(0); err != nil {
		return 0, err
	}
	refused := 0
	for _, tk := range tickets {
		if _, err := tk.Wait(); err != nil {
			refused++
		}
	}
	return refused, nil
}

// f2Share subscribes the F2 queries through the share coordinator, runs
// ten 4096 ms rounds and checks every delivered epoch.
func f2Share(router bool) (*oracle.Tally, int, error) {
	up, world, closeUp, err := f2Upstream(router)
	if err != nil {
		return nil, 0, err
	}
	defer closeUp()
	coord, err := share.New(share.Config{Upstream: up, Sensors: world.Sensors()})
	if err != nil {
		return nil, 0, err
	}
	defer coord.Close()
	type pend struct {
		q  query.Query
		tk *share.Ticket
	}
	var ps []pend
	for i, q := range f2Queries() {
		s, err := coord.Register(fmt.Sprintf("client-%d", i))
		if err != nil {
			return nil, 0, err
		}
		tk, err := s.SubscribeAsync(q)
		if err != nil {
			return nil, 0, err
		}
		ps = append(ps, pend{q, tk})
	}
	if _, err := coord.Advance(0); err != nil {
		return nil, 0, err
	}
	type live struct {
		sub    *share.Sub
		stream *oracle.Stream
	}
	var subs []live
	refused := 0
	for _, p := range ps {
		sub, err := p.tk.Wait()
		if err != nil {
			refused++
			continue
		}
		subs = append(subs, live{sub, oracle.NewStream(p.q)})
	}
	tally := &oracle.Tally{}
	for r := 0; r < 10; r++ {
		if _, err := coord.Advance(4096 * time.Millisecond); err != nil {
			return nil, 0, err
		}
		for _, l := range subs {
			for more := true; more; {
				select {
				case u, ok := <-l.sub.Updates():
					if !ok {
						more = false
						break
					}
					tally.Add(l.stream.Check(world, toOracleEpoch(oracle.Epoch{}, u)))
				default:
					more = false
				}
			}
		}
	}
	return tally, refused, nil
}

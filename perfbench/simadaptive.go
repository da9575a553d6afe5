package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/network"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/topology"
	paper "repro/internal/workload"
	"repro/perfbench/oracle"
)

// sim-adaptive: the paper's §4.3 adaptive workload fed straight into one
// network.Simulation under TTMQO, with the scheme's own tier-2 policy — the
// reproduction path with no serving tier.
const (
	simSide        = 12               // PaperGrid(12): 144 nodes, 143 sensors
	simQueries     = 4000             // enough for runs of well over a minute
	simInterarrive = 40 * time.Second // the paper's mean arrival spacing
	simConcurrency = 48               // the top of the paper's §4.3 sweep
	// simScheduleSeed draws the query schedule, the same for every run
	// seed: drawn per seed, the live query mix moved round times by ±15%
	// between seeds, more than the code under test does. The run seed
	// draws the sensor field, the radio, the round quanta and the offset
	// of the schedule against the epoch grid (simPhase).
	simScheduleSeed = 1
	simPhase        = 8192 * time.Millisecond
	simQuantum      = 24576 * time.Millisecond
	// simWarm shifts the arrival schedule back by two mean lifetimes so the
	// run opens at the steady-state concurrency: setup posts the queries
	// live at t=0.
	simWarm = 2 * simInterarrive * simConcurrency
)

type simDelivery struct {
	qid  query.ID
	at   sim.Time // epoch timestamp
	when sim.Time // delivery instant (virtual)
	rows []query.Row
	aggs []query.AggResult
}

type simLive struct {
	stream   *oracle.Stream
	seq      uint64
	postedAt sim.Time
	sample   bool // posted during a measured round: feeds ttfr
	seen     bool
	gone     bool // cancelled
}

type simAdaptive struct {
	seed  int64
	tr    *tracer
	sim   *network.Simulation
	world *oracle.World
	q     *jitter

	arrivals []paper.TimedQuery // by Arrive, shifted by simWarm
	next     int
	departs  []paper.TimedQuery // posted, by Depart
	live     map[query.ID]*simLive
	pending  []simDelivery
	buf      oracle.Epoch // reused by check
	ops      opStats
}

func newSimAdaptive(seed int64, tr *tracer) workload {
	return &simAdaptive{seed: seed, tr: tr, live: make(map[query.ID]*simLive)}
}

func (w *simAdaptive) setup() error {
	topo, err := topology.PaperGrid(simSide)
	if err != nil {
		return err
	}
	s, err := network.New(network.Config{Topo: topo, Scheme: network.TTMQO, Seed: w.seed, DiscardResults: true})
	if err != nil {
		return err
	}
	w.sim = s
	if w.world, err = oracle.NewWorld(simSide, 1, w.seed); err != nil {
		return err
	}
	w.q = newJitter(simQuantum, w.seed)
	phase := time.Duration(rand.New(rand.NewSource(w.seed)).Int63n(int64(simPhase))).Truncate(time.Millisecond)
	s.Results().OnRows = func(ur core.UserRows) {
		w.pending = append(w.pending, simDelivery{qid: ur.QueryID, at: ur.Time, when: s.Engine().Now(), rows: ur.Rows})
	}
	s.Results().OnAggs = func(ua core.UserAgg) {
		w.pending = append(w.pending, simDelivery{qid: ua.QueryID, at: ua.Time, when: s.Engine().Now(), aggs: ua.Results})
	}
	for _, tq := range paper.Random(paper.RandomConfig{
		Seed:              simScheduleSeed,
		NumQueries:        simQueries,
		MeanInterarrival:  simInterarrive,
		TargetConcurrency: simConcurrency,
	}) {
		tq.Arrive += phase - simWarm
		tq.Depart += phase - simWarm
		if tq.Depart > 0 {
			w.arrivals = append(w.arrivals, tq)
		}
	}
	sort.SliceStable(w.arrivals, func(i, j int) bool { return w.arrivals[i].Arrive < w.arrivals[j].Arrive })
	return w.admit()
}

// admit cancels every posted query departing by now and posts every query
// arriving by now.
func (w *simAdaptive) admit() error {
	parent := w.tr.round()
	now := w.sim.Engine().Now()
	for len(w.departs) > 0 && w.departs[0].Depart <= time.Duration(now) {
		qid := w.departs[0].Query.ID
		id := w.tr.begin("network.post", parent)
		err := w.sim.Cancel(qid)
		w.tr.end(id)
		if err != nil {
			return fmt.Errorf("cancel q%d: %w", qid, err)
		}
		w.live[qid].gone = true // retired by check, after its last deliveries
		w.departs = w.departs[1:]
		w.ops.attempted++
	}
	for w.next < len(w.arrivals) && w.arrivals[w.next].Arrive <= time.Duration(now) {
		tq := w.arrivals[w.next]
		w.next++
		id := w.tr.begin("network.post", parent)
		_, err := w.sim.Post(tq.Query)
		w.tr.end(id)
		if err != nil {
			return fmt.Errorf("post q%d: %w", tq.Query.ID, err)
		}
		w.ops.attempted++
		w.live[tq.Query.ID] = &simLive{stream: oracle.NewStream(tq.Query), postedAt: now, sample: now > 0}
		i := sort.Search(len(w.departs), func(i int) bool { return w.departs[i].Depart > tq.Depart })
		w.departs = append(w.departs, paper.TimedQuery{})
		copy(w.departs[i+1:], w.departs[i:])
		w.departs[i] = tq
	}
	if w.next == len(w.arrivals) {
		return fmt.Errorf("workload exhausted after %d queries", w.next)
	}
	return nil
}

func (w *simAdaptive) prepare() error { return nil }

// round runs one quantum, stopping the simulation at each arrival and
// departure in it to post or cancel the query at its own instant.
func (w *simAdaptive) round() error {
	end := time.Duration(w.sim.Engine().Now()) + w.q.next()
	for {
		now := time.Duration(w.sim.Engine().Now())
		next := end
		if w.next < len(w.arrivals) {
			next = min(next, max(now, w.arrivals[w.next].Arrive))
		}
		if len(w.departs) > 0 {
			next = min(next, max(now, w.departs[0].Depart))
		}
		if next > now {
			id := w.tr.begin("network.run", w.tr.round())
			w.sim.Run(next - now)
			w.tr.end(id)
		}
		if next == end {
			return nil
		}
		if err := w.admit(); err != nil {
			return err
		}
	}
}

func (w *simAdaptive) check() error {
	for _, d := range w.pending {
		l, ok := w.live[d.qid]
		if !ok {
			return fmt.Errorf("delivery for q%d, which is not live", d.qid)
		}
		if l.sample && !l.seen {
			w.ops.ttfr = append(w.ops.ttfr, time.Duration(d.when-l.postedAt).Seconds())
		}
		l.seen = true
		l.seq++ // results carry no sequence number; number them in order
		w.buf = oracle.Epoch{Seq: l.seq, At: d.at, Rows: appendRows(w.buf.Rows[:0], d.rows), Aggs: appendAggs(w.buf.Aggs[:0], d.aggs)}
		// TTMQO's sleep rule (F1) is the one known cause of a lost
		// contribution on a bare simulation.
		if err := epochCheck(&w.ops, l.stream, w.world, w.buf, "F1-lost-contribution"); err != nil {
			return fmt.Errorf("q%d: %w", d.qid, err)
		}
	}
	clear(w.pending) // drop the delivered epochs the backing array still holds
	w.pending = w.pending[:0]
	for qid, l := range w.live {
		if l.gone {
			delete(w.live, qid)
		}
	}
	return nil
}

func (w *simAdaptive) stats() *opStats { return &w.ops }

func (w *simAdaptive) counters(c map[string]float64) {
	addSimCounters(c, w.sim)
}

func (w *simAdaptive) radioPct() float64 { return 100 * w.sim.AvgTransmissionTime() }

func (w *simAdaptive) close() {}

// addSimCounters adds one simulation's engine, radio and optimizer counters.
func addSimCounters(c map[string]float64, s *network.Simulation) {
	c["sim.events"] += float64(s.Engine().Fired())
	m := s.Metrics()
	c["radio.messages"] += float64(m.Messages())
	c["radio.retransmissions"] += float64(m.Retransmissions())
	c["radio.bytes"] += float64(m.Bytes())
	if o := s.Optimizer(); o != nil {
		c["core.synthetic"] += float64(o.SyntheticCount())
		c["core.user"] += float64(o.UserCount())
		c["core.benefit"] += o.TotalBenefit()
		c["core.user_cost"] += o.TotalUserCost()
		if c["core.user_cost"] > 0 {
			c["core.benefit_ratio"] = c["core.benefit"] / c["core.user_cost"]
		}
	}
}

// appendRows converts delivered rows to the oracle's form, reusing dst.
func appendRows(dst []oracle.Row, rows []query.Row) []oracle.Row {
	for _, r := range rows {
		dst = append(dst, oracle.Row{Node: int(r.Node), Values: r.Values})
	}
	return dst
}

// appendAggs converts delivered aggregates to the oracle's form, reusing dst.
func appendAggs(dst []oracle.Agg, aggs []query.AggResult) []oracle.Agg {
	for _, a := range aggs {
		dst = append(dst, oracle.Agg{Op: a.Agg.Op, Attr: a.Agg.Attr, Value: a.Value, Empty: a.Empty})
	}
	return dst
}

// toOracleEpoch converts a serving-tier update, reusing e's slices.
func toOracleEpoch(e oracle.Epoch, u gateway.Update) oracle.Epoch {
	return oracle.Epoch{Seq: u.Seq, At: u.At, Rows: appendRows(e.Rows[:0], u.Rows), Aggs: appendAggs(e.Aggs[:0], u.Aggs)}
}

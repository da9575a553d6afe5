package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/federation"
	"repro/internal/gateway"
	"repro/internal/network"
	"repro/internal/query"
	"repro/internal/share"
	"repro/internal/sim"
	"repro/perfbench/oracle"
)

// federated-churn: the share coordinator over a two-shard federation
// router, driven in-process through the public session API. Sessions
// subscribe and unsubscribe every round to overlapping queries, so commit,
// CSE planning, fragment admission and tier-1 Insert/Terminate on the shard
// gateways run next to merge, recombination and cache replay.
const (
	churnShards       = 2
	churnSide         = 6 // PaperGrid(6) per shard: 35 sensors, 70 in all
	churnSessions     = 240
	churnPool         = 48
	churnPoolSeed     = 1
	churnScheduleSeed = 1
	churnPerRound     = 48 // sessions that swap their query each round
	churnQuantum      = 8192 * time.Millisecond
)

var churnEpochs = []time.Duration{4096 * time.Millisecond, 8192 * time.Millisecond}

// timedUpstream wraps the coordinator's upstream seam, timing the router's
// Advance and Register calls from outside.
type timedUpstream struct {
	share.Upstream
	tr     *tracer
	parent *int // the open share.advance span
	cur    int  // the open federation.advance span
}

func (u *timedUpstream) Advance(d time.Duration) (int, error) {
	u.cur = u.tr.begin("federation.advance", *u.parent)
	n, err := u.Upstream.Advance(d)
	u.tr.end(u.cur)
	u.cur = 0
	return n, err
}

func (u *timedUpstream) Register(name string) (share.UpstreamSession, error) {
	id := u.tr.begin("federation.register", *u.parent)
	s, err := u.Upstream.Register(name)
	u.tr.end(id)
	return s, err
}

type churnSub struct {
	sub      *share.Sub
	stream   *oracle.Stream
	stagedAt sim.Time
	sample   bool // staged during a measured round: feeds ttfr
	seen     bool
}

type churnUpdate struct {
	cs *churnSub
	u  gateway.Update
}

type churnSession struct {
	s   *share.Session
	cur *churnSub
}

type fedChurn struct {
	seed  int64
	tr    *tracer
	rng   *rand.Rand // the churn schedule
	world *oracle.World
	rt    *federation.Router
	up    *timedUpstream
	coord *share.Coordinator
	sims  []*network.Simulation
	pool  []query.Query

	sessions []*churnSession
	live     []*churnSub // every stream still open, in subscribe order
	pending  []churnUpdate
	shareCur int // the open share.advance span
	measured bool
	buf      oracle.Epoch // reused by check
	ops      opStats
}

func newFedChurn(seed int64, tr *tracer) workload {
	return &fedChurn{seed: seed, tr: tr, rng: rand.New(rand.NewSource(churnScheduleSeed))}
}

func (w *fedChurn) setup() error {
	var err error
	if w.world, err = oracle.NewWorld(churnSide, churnShards, w.seed); err != nil {
		return err
	}
	w.sims = make([]*network.Simulation, churnShards)
	w.rt, err = federation.New(federation.Config{
		Shards:     churnShards,
		Side:       churnSide,
		Seed:       w.seed,
		OnShardSim: func(i int, s *network.Simulation) { w.sims[i] = s },
	})
	if err != nil {
		return err
	}
	w.rt.SetMergeObserver(func(d time.Duration) {
		if w.tr != nil {
			end := time.Now()
			w.tr.record("federation.merge", w.up.cur, end.Add(-d), end)
		}
	})
	w.up = &timedUpstream{Upstream: share.OverRouter(w.rt), tr: w.tr, parent: &w.shareCur}
	w.coord, err = share.New(share.Config{Upstream: w.up, Sensors: w.world.Sensors()})
	if err != nil {
		return err
	}
	// The pool and the churn schedule are the same for every seed. The
	// shards' admission limits are the shipped defaults, so fault F2 refuses
	// subscribes; how many depends on which queries are admitted when, and
	// a fixed schedule keeps that share the same on every seed. The seed
	// draws the sensor fields, the radios and the phase of the rounds
	// against the epoch grid.
	w.pool = genPool(rand.New(rand.NewSource(churnPoolSeed)), churnPool, w.world.Sensors(), churnEpochs)
	if _, err := w.coord.Advance(churnPhase(w.seed)); err != nil {
		return err
	}
	for i := 0; i < churnSessions; i++ {
		s, err := w.coord.Register(fmt.Sprintf("churn-%d", i))
		if err != nil {
			return err
		}
		w.sessions = append(w.sessions, &churnSession{s: s})
	}
	idx := make([]int, churnSessions)
	for i := range idx {
		idx[i] = i
	}
	return w.step(idx, 0)
}

// churnPhase is where the rounds start on the epoch grid, drawn from the
// seed: 2048 ms plus up to 128 ms. Every epoch boundary (every 4096 ms)
// then lies almost two seconds inside a round, so how many epochs a stream
// delivers, and the operation counts, do not depend on the phase. The
// range is narrow because the time to first result follows the phase.
func churnPhase(seed int64) time.Duration {
	return time.Duration(2048+rand.New(rand.NewSource(seed)).Intn(128)) * time.Millisecond
}

// step swaps the query of every session in idx (unsubscribing its current
// stream, if any, and subscribing a fresh draw from the pool), advances d,
// and drains every stream.
func (w *fedChurn) step(idx []int, d time.Duration) error {
	parent := w.tr.round()
	now, err := w.coord.Now()
	if err != nil {
		return err
	}
	type staged struct {
		cs *churnSession
		q  query.Query
		tk *share.Ticket
	}
	stage := w.tr.begin("share.stage", parent)
	subs := make([]staged, 0, len(idx))
	for _, i := range idx {
		cs := w.sessions[i]
		if cs.cur != nil {
			if _, err := cs.s.UnsubscribeAsync(cs.cur.sub.ID()); err != nil {
				return err
			}
			w.ops.attempted++
			cs.cur = nil
		}
		q := w.pool[w.rng.Intn(len(w.pool))]
		tk, err := cs.s.SubscribeAsync(q)
		if err != nil {
			return err
		}
		w.ops.attempted++
		subs = append(subs, staged{cs, q, tk})
	}
	w.tr.end(stage)
	w.shareCur = w.tr.begin("share.advance", parent)
	_, err = w.coord.Advance(d)
	w.tr.end(w.shareCur)
	w.shareCur = parent
	if err != nil {
		return err
	}
	for _, p := range subs {
		sub, err := p.tk.Wait()
		if err != nil {
			// The gateway's refusal is untyped; its message names the cause.
			if strings.Contains(err.Error(), "rate-limited") {
				w.ops.fail("F2-rate-limited")
				continue
			}
			return fmt.Errorf("subscribe %s: %w", p.q, err)
		}
		cs := &churnSub{sub: sub, stream: oracle.NewStream(p.q), stagedAt: now, sample: w.measured}
		p.cs.cur = cs
		w.live = append(w.live, cs)
	}
	return w.drain()
}

// drain reads every open stream dry; streams whose channel has closed are
// retired. The updates are kept for check.
func (w *fedChurn) drain() error {
	keep := w.live[:0]
	for _, cs := range w.live {
		open := true
	read:
		for {
			select {
			case u, ok := <-cs.sub.Updates():
				if !ok {
					open = false
					break read
				}
				w.pending = append(w.pending, churnUpdate{cs, u})
			default:
				break read
			}
		}
		if open {
			keep = append(keep, cs)
		} else if r := cs.sub.Reason(); r != gateway.ReasonUnsubscribed {
			w.ops.fail("closed-" + r.String())
		}
	}
	w.live = keep
	return nil
}

func (w *fedChurn) prepare() error { return nil }

func (w *fedChurn) round() error {
	w.measured = true
	idx := w.rng.Perm(churnSessions)[:churnPerRound]
	return w.step(idx, churnQuantum)
}

// check verifies the epochs the last round drained.
func (w *fedChurn) check() error {
	for _, p := range w.pending {
		if err := w.deliver(p.cs, p.u); err != nil {
			return err
		}
	}
	clear(w.pending) // drop the delivered epochs the backing array still holds
	w.pending = w.pending[:0]
	return nil
}

func (w *fedChurn) deliver(cs *churnSub, u gateway.Update) error {
	// A cache replay hands over epochs older than the subscribe; the time
	// to first result is to the first epoch measured after it.
	if cs.sample && !cs.seen && u.At >= cs.stagedAt {
		w.ops.ttfr = append(w.ops.ttfr, time.Duration(u.At-cs.stagedAt).Seconds())
		cs.seen = true
	}
	// The shards run TTMQO's sleep rule (F1), and a subscribe whose
	// fragment admission was refused (F2) may leave a shared fragment short.
	class := "F1-or-F2-lost-contribution"
	if u.Degraded {
		class = "degraded"
	}
	w.buf = toOracleEpoch(w.buf, u)
	if err := epochCheck(&w.ops, cs.stream, w.world, w.buf, class); err != nil {
		return fmt.Errorf("sub %d: %w", cs.sub.ID(), err)
	}
	return nil
}

func (w *fedChurn) stats() *opStats { return &w.ops }

func (w *fedChurn) counters(c map[string]float64) {
	for _, s := range w.sims {
		addSimCounters(c, s)
	}
	for i := 0; i < churnShards; i++ {
		if st, err := w.rt.ShardStats(i); err == nil {
			addGatewayCounters(c, st)
		}
	}
	fs := w.rt.FedStats()
	c["federation.upstream_subs"] = float64(fs.UpstreamSubs)
	c["federation.merged_epochs"] = float64(fs.MergedEpochs)
	c["federation.degraded_epochs"] = float64(fs.DegradedEpochs)
	ss := w.coord.ShareStats()
	c["share.fragments_created"] = float64(ss.FragmentsCreated)
	c["share.fragments_reused"] = float64(ss.FragmentsReused)
	c["share.fragments_cancelled"] = float64(ss.FragmentsCancelled)
	c["share.cache_hits"] = float64(ss.CacheHits)
	c["share.cache_misses"] = float64(ss.CacheMisses)
	c["share.replayed_epochs"] = float64(ss.ReplayedEpochs)
	c["share.partial_dropped"] = float64(ss.PartialDropped)
}

func (w *fedChurn) radioPct() float64 {
	var sum float64
	for _, s := range w.sims {
		sum += s.AvgTransmissionTime()
	}
	return 100 * sum / float64(len(w.sims))
}

func (w *fedChurn) close() {
	if w.coord != nil {
		_ = w.coord.Close()
	}
	if w.rt != nil {
		_ = w.rt.Close()
	}
}

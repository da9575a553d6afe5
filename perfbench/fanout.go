package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/field"
	"repro/internal/gateway"
	"repro/internal/network"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/perfbench/oracle"
)

// serve-fanout: one gateway behind the real TCP server and binary codec.
// A few client connections each hold many subscriptions to a small pool of
// distinct queries, so semantic dedup leaves the network almost idle and a
// round is fan-out, encode, socket write and client decode.
const (
	fanSide       = 5 // PaperGrid(5): 24 sensors
	fanPool       = 8
	fanPoolSeed   = 1
	fanSubsPerCon = 256
	fanQuantum    = 8192 * time.Millisecond
	// fanWait bounds how long a round waits for the server or the readers.
	fanWait = 30 * time.Second
)

var fanEpochs = []time.Duration{2048 * time.Millisecond, 4096 * time.Millisecond}

// fanConn is one client connection and its reader goroutine. All readers
// share the workload's lock, so a round can wait on their total.
type fanConn struct {
	c    *gateway.Client
	name string
	sh   *fanShared
	done chan struct{}

	// Guarded by sh.mu.
	updates []gateway.Response // since the last check
	other   []gateway.Response // acks, closed notices, errors
	recvAt  []time.Time        // traced: arrival instant of each update
}

// fanShared is the readers' common state.
type fanShared struct {
	mu     sync.Mutex
	cond   *sync.Cond
	reads  int64 // updates read by every connection, cumulative
	err    error
	traced bool
}

func (fc *fanConn) readLoop() {
	defer close(fc.done)
	sh := fc.sh
	for {
		resp, err := fc.c.Recv()
		sh.mu.Lock()
		switch {
		case err != nil:
			if sh.err == nil {
				sh.err = fmt.Errorf("%s: %w", fc.name, err)
			}
		case resp.Type == gateway.TypeRows || resp.Type == gateway.TypeAgg:
			fc.updates = append(fc.updates, resp)
			sh.reads++
			if sh.traced {
				fc.recvAt = append(fc.recvAt, time.Now())
			}
		default:
			fc.other = append(fc.other, resp)
		}
		sh.cond.Broadcast()
		sh.mu.Unlock()
		if err != nil {
			return
		}
	}
}

// wait blocks until done() holds (called with sh.mu held) or a reader fails.
func (sh *fanShared) wait(done func() bool) error {
	timer := time.AfterFunc(fanWait, func() {
		sh.mu.Lock()
		if sh.err == nil {
			sh.err = fmt.Errorf("timed out after %v waiting for the readers", fanWait)
		}
		sh.cond.Broadcast()
		sh.mu.Unlock()
	})
	defer timer.Stop()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for sh.err == nil && !done() {
		sh.cond.Wait()
	}
	return sh.err
}

type fanSub struct {
	k        int // pool index
	stream   *oracle.Stream
	stagedAt sim.Time
	sample   bool // staged during a measured round: feeds ttfr
	seen     bool
}

type serveFanout struct {
	seed  int64
	tr    *tracer
	rng   *rand.Rand
	q     *jitter
	world *oracle.World
	gw    *gateway.Gateway
	srv   *gateway.Server
	sim   *network.Simulation
	conns []*fanConn
	sh    *fanShared
	pool  []query.Query

	subs     map[gateway.SubID]*fanSub
	owned    [][]gateway.SubID // per connection, live subscriptions
	reopen   []int             // per connection, pool index of the last unsubscribe
	stagedAt sim.Time          // virtual time this round's commands were staged
	total    int64             // updates fanned out, cumulative (gateway Stats)
	buf      oracle.Epoch      // reused by check
	ops      opStats
	rounds   int
}

func newServeFanout(seed int64, tr *tracer) workload {
	return &serveFanout{seed: seed, tr: tr, rng: rand.New(rand.NewSource(seed)), subs: make(map[gateway.SubID]*fanSub)}
}

func (w *serveFanout) setup() error {
	topo, err := topology.PaperGrid(fanSide)
	if err != nil {
		return err
	}
	if w.world, err = oracle.NewWorld(fanSide, 1, w.seed); err != nil {
		return err
	}
	w.q = newJitter(fanQuantum, w.seed)
	sensors := topo.Size() - 1
	// The pool is the same for every seed: with only fanPool network
	// queries, a drawn pool would set the cost of a round more than the
	// code under test does. The seed draws assignments and churn.
	w.pool = genPool(rand.New(rand.NewSource(fanPoolSeed)), fanPool, sensors, fanEpochs)
	w.gw, err = gateway.New(gateway.Config{
		Sim: network.Config{Topo: topo, Scheme: network.TTMQO, Seed: w.seed},
		// Every connection holds fanSubsPerCon subscriptions, all placed
		// at virtual time 0: quota and token burst are raised to fit.
		SessionQuota: fanSubsPerCon + 1,
		Burst:        fanSubsPerCon + 8,
		OnSim:        func(s *network.Simulation) { w.sim = s },
	})
	if err != nil {
		return err
	}
	// The wall-clock pacer is left idle; the benchmark advances the backend.
	w.srv, err = gateway.NewServer(w.gw, gateway.ServerConfig{Addr: "127.0.0.1:0", TickEvery: 24 * time.Hour, ReadTimeout: -1})
	if err != nil {
		return err
	}
	w.sh = &fanShared{traced: w.tr != nil}
	w.sh.cond = sync.NewCond(&w.sh.mu)
	nconn := min(2, runtime.NumCPU())
	for i := 0; i < nconn; i++ {
		c, err := gateway.Dial(w.srv.Addr().String(), gateway.ClientConfig{Binary: true})
		if err != nil {
			return err
		}
		fc := &fanConn{c: c, name: fmt.Sprintf("fan-%d", i), sh: w.sh, done: make(chan struct{})}
		if _, err := c.Hello(fc.name, ""); err != nil {
			_ = c.Close()
			return err
		}
		w.conns = append(w.conns, fc) // close waits for every reader started
		go fc.readLoop()
	}
	w.owned = make([][]gateway.SubID, nconn)
	w.reopen = make([]int, nconn)
	// Pipeline every initial subscribe; the server commits one per
	// connection per Advance. Each connection holds every pool query
	// equally often, in an order drawn from the seed: how many streams a
	// query feeds sets the cost of a round, and a drawn split would set it
	// more than the code under test does.
	for _, fc := range w.conns {
		for _, j := range w.rng.Perm(fanSubsPerCon) {
			k := j % len(w.pool)
			if err := fc.c.Send(gateway.Request{Op: gateway.OpSubscribe, Query: w.pool[k].String(), Tag: strconv.Itoa(k)}); err != nil {
				return err
			}
			w.ops.attempted++
		}
	}
	for j := 0; j < fanSubsPerCon; j++ {
		if err := w.waitStaged(len(w.conns)); err != nil {
			return err
		}
		if _, err := w.gw.Advance(0); err != nil {
			return err
		}
		if err := w.sh.wait(func() bool { return w.acked(j + 1) }); err != nil {
			return err
		}
	}
	for ci, fc := range w.conns {
		if err := w.takeAcks(ci, fc, 0, false); err != nil {
			return err
		}
	}
	st, err := w.gw.Stats()
	w.total = st.Updates
	return err
}

// waitStaged polls the group-commit mailbox until n commands are staged,
// so each round commits exactly the commands issued for it.
func (w *serveFanout) waitStaged(n int) error {
	deadline := time.Now().Add(fanWait)
	for {
		st, err := w.gw.Status()
		if err != nil {
			return err
		}
		if st.Staged >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("only %d of %d commands staged after %v", st.Staged, n, fanWait)
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// takeAcks consumes the non-update frames of connection ci: subscribe acks
// register their subscription; closed notices need nothing more.
func (w *serveFanout) takeAcks(ci int, fc *fanConn, stagedAt sim.Time, sample bool) error {
	w.sh.mu.Lock()
	other := fc.other
	fc.other = nil
	w.sh.mu.Unlock()
	for _, r := range other {
		switch r.Type {
		case gateway.TypeSubscribed:
			k, err := strconv.Atoi(r.Tag)
			if err != nil {
				return fmt.Errorf("ack tag %q", r.Tag)
			}
			w.subs[r.Sub] = &fanSub{k: k, stream: oracle.NewStream(w.pool[k]), stagedAt: stagedAt, sample: sample}
			w.owned[ci] = append(w.owned[ci], r.Sub)
		case gateway.TypeError:
			return fmt.Errorf("%s: server error: %s", fc.name, r.Error)
		}
	}
	return nil
}

// prepare stages the round's churn, outside the clock: each connection
// unsubscribes a stream drawn from the seed, and in the next round opens a
// new stream to the same query, so every query keeps its share of the
// streams. The round waits until the TCP handlers have staged them.
func (w *serveFanout) prepare() error {
	now, err := w.gw.Now()
	if err != nil {
		return err
	}
	w.stagedAt = now
	unsub := w.rounds%2 == 0
	w.rounds++
	for ci, fc := range w.conns {
		var req gateway.Request
		if unsub {
			i := w.rng.Intn(len(w.owned[ci]))
			id := w.owned[ci][i]
			w.owned[ci] = append(w.owned[ci][:i], w.owned[ci][i+1:]...)
			w.reopen[ci] = w.subs[id].k
			req = gateway.Request{Op: gateway.OpUnsubscribe, Sub: id}
		} else {
			k := w.reopen[ci]
			req = gateway.Request{Op: gateway.OpSubscribe, Query: w.pool[k].String(), Tag: strconv.Itoa(k)}
		}
		if err := fc.c.Send(req); err != nil {
			return err
		}
		w.ops.attempted++
	}
	return w.waitStaged(len(w.conns))
}

// round is the measured part: Advance, then drain every update it fanned
// out to the TCP readers.
func (w *serveFanout) round() error {
	parent := w.tr.round()
	id := w.tr.begin("gateway.advance", parent)
	_, err := w.gw.Advance(w.q.next())
	w.tr.end(id)
	if err != nil {
		return err
	}
	st, err := w.gw.Stats()
	if err != nil {
		return err
	}
	w.total = st.Updates
	drain := w.tr.begin("gateway.drain", parent)
	// The round ends when every update fanned out has been read and every
	// connection's command has been answered.
	if err := w.sh.wait(func() bool { return w.sh.reads >= w.total && w.acked(1) }); err != nil {
		return err
	}
	w.tr.end(drain)
	if w.tr != nil {
		w.sh.mu.Lock()
		for _, fc := range w.conns {
			if n := len(fc.recvAt); n > 0 {
				w.tr.record("client.read", parent, fc.recvAt[0], fc.recvAt[n-1])
			}
			fc.recvAt = fc.recvAt[:0]
		}
		w.sh.mu.Unlock()
	}
	return nil
}

// acked reports whether every connection holds n answered commands
// (called with sh.mu held).
func (w *serveFanout) acked(n int) bool {
	for _, fc := range w.conns {
		if len(fc.other) < n {
			return false
		}
	}
	return true
}

func (w *serveFanout) check() error {
	now, err := w.gw.Now()
	if err != nil {
		return err
	}
	for ci, fc := range w.conns {
		if err := w.takeAcks(ci, fc, w.stagedAt, true); err != nil {
			return err
		}
		w.sh.mu.Lock()
		ups := fc.updates
		fc.updates = nil
		w.sh.mu.Unlock()
		for _, u := range ups {
			s, ok := w.subs[u.Sub]
			if !ok {
				return fmt.Errorf("%s: update for unknown subscription %d", fc.name, u.Sub)
			}
			if s.sample && !s.seen {
				w.ops.ttfr = append(w.ops.ttfr, time.Duration(now-s.stagedAt).Seconds())
			}
			s.seen = true
			// The gateway's simulation runs TTMQO's sleep rule (F1), the
			// one known cause of a lost contribution here.
			w.buf = wireEpoch(w.buf, u)
			if err := epochCheck(&w.ops, s.stream, w.world, w.buf, "F1-lost-contribution"); err != nil {
				return fmt.Errorf("sub %d: %w", u.Sub, err)
			}
		}
	}
	return nil
}

// wireEpoch converts a delivered wire frame to the oracle's form, reusing
// the slices and row maps of dst.
func wireEpoch(dst oracle.Epoch, r gateway.Response) oracle.Epoch {
	e := oracle.Epoch{Seq: r.Seq, At: sim.Time(time.Duration(r.AtMS) * time.Millisecond), Rows: dst.Rows[:0], Aggs: dst.Aggs[:0]}
	if r.Type == gateway.TypeRows {
		for _, row := range r.Rows {
			var vals map[field.Attr]float64
			if n := len(e.Rows); n < cap(e.Rows) {
				vals = e.Rows[:n+1][n].Values
				clear(vals)
			}
			if vals == nil {
				vals = make(map[field.Attr]float64, len(row.Values))
			}
			for k, v := range row.Values {
				a, err := field.ParseAttr(k)
				if err != nil {
					a = 0 // an unknown attribute fails the value check
				}
				vals[a] = v
			}
			e.Rows = append(e.Rows, oracle.Row{Node: int(row.Node), Values: vals})
		}
		return e
	}
	for _, a := range r.Aggs {
		op, attr := parseAggName(a.Agg)
		e.Aggs = append(e.Aggs, oracle.Agg{Op: op, Attr: attr, Value: a.Value, Empty: a.Empty})
	}
	return e
}

// parseAggName splits "MAX(light)".
func parseAggName(s string) (query.AggOp, field.Attr) {
	for i := 0; i < len(s); i++ {
		if s[i] == '(' && s[len(s)-1] == ')' {
			op, err1 := query.ParseAggOp(s[:i])
			a, err2 := field.ParseAttr(s[i+1 : len(s)-1])
			if err1 == nil && err2 == nil {
				return op, a
			}
		}
	}
	return 0, 0
}

func (w *serveFanout) stats() *opStats { return &w.ops }

func (w *serveFanout) counters(c map[string]float64) {
	if w.sim != nil {
		addSimCounters(c, w.sim)
	}
	st, err := w.gw.Stats()
	if err != nil {
		return
	}
	addGatewayCounters(c, st)
	w.sh.mu.Lock()
	c["gateway.client_reads"] += float64(w.sh.reads)
	w.sh.mu.Unlock()
}

func addGatewayCounters(c map[string]float64, st gateway.Stats) {
	c["gateway.updates"] += float64(st.Updates)
	c["gateway.epochs"] += float64(st.Epochs)
	c["gateway.admitted"] += float64(st.Admitted)
	c["gateway.dedup_hits"] += float64(st.DedupHits)
	c["gateway.rate_limited"] += float64(st.RateLimited)
	c["gateway.evicted"] += float64(st.Evicted)
	c["gateway.dropped"] += float64(st.Dropped)
}

func (w *serveFanout) radioPct() float64 { return 100 * w.sim.AvgTransmissionTime() }

func (w *serveFanout) close() {
	if w.gw != nil {
		_ = w.gw.Close()
	}
	if w.srv != nil {
		_ = w.srv.Close()
	}
	for _, fc := range w.conns {
		_ = fc.c.Close()
		<-fc.done
	}
}

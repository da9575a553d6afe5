// Package oracle recomputes the ground truth of a delivered result epoch
// from the deterministic sensor field and classifies what was delivered.
//
// It deliberately shares no evaluation code with the system under test:
// predicates, projections and SUM/COUNT/MIN/MAX/AVG are evaluated here from
// field readings alone, without query.MatchesRow, query.AggState or any
// planner. Only the data types (query.Query, field.Attr, sim.Time) and the
// field generator itself are shared.
package oracle

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/field"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Verdict classifies one delivered epoch against the truth.
type Verdict uint8

const (
	// Exact: the epoch equals the truth.
	Exact Verdict = iota
	// Lost: the epoch is a proper subset of the truth — qualifying rows
	// missing, COUNT or SUM below, MAX below, MIN above, an AVG that some
	// proper subset of the readings yields, or an empty result where
	// sensors qualified. A dropped contribution explains it.
	Lost
	// WrongValue: a row carries a value that differs from the field reading
	// at the epoch's timestamp.
	WrongValue
	// Foreign: a row comes from a sensor that does not qualify (or does not
	// exist).
	Foreign
	// Duplicate: a sensor contributes two rows to one epoch.
	Duplicate
	// OutOfBounds: an aggregate lies outside the bounds any subset of the
	// qualifying readings allows.
	OutOfBounds
	// SeqGap: the stream's sequence number did not advance by exactly one.
	SeqGap
	// AtOrder: the epoch timestamp did not increase along the stream.
	AtOrder
)

func (v Verdict) String() string {
	switch v {
	case Exact:
		return "exact"
	case Lost:
		return "lost-contribution"
	case WrongValue:
		return "wrong-value"
	case Foreign:
		return "foreign-sensor"
	case Duplicate:
		return "duplicate"
	case OutOfBounds:
		return "out-of-bounds-aggregate"
	case SeqGap:
		return "seq-gap"
	case AtOrder:
		return "at-not-increasing"
	default:
		return fmt.Sprintf("verdict(%d)", uint8(v))
	}
}

// Fatal reports whether no dropped contribution can explain the verdict.
func (v Verdict) Fatal() bool { return v >= WrongValue }

// Row is one delivered acquisition row in global sensor ids.
type Row struct {
	Node   int
	Values map[field.Attr]float64
}

// Agg is one delivered aggregate value.
type Agg struct {
	Op    query.AggOp
	Attr  field.Attr
	Value float64
	Empty bool
}

// Epoch is one delivered result epoch of one subscription.
type Epoch struct {
	Seq  uint64
	At   sim.Time
	Rows []Row
	Aggs []Agg
}

// Result is a verdict with a human-readable reason for anything not exact.
type Result struct {
	Verdict Verdict
	Detail  string
}

// World is the ground truth: the sensor field of one gateway, or of K
// region shards laid end to end. Shard s owns global sensor ids
// [s*spn+1, (s+1)*spn] and reads its own field (seeded Seed+s by the
// system); global id g maps to shard (g-1)/spn, local id g - s*spn.
//
// A World reuses its scratch buffers from one check to the next, so it is
// not safe for concurrent use.
type World struct {
	spn    int
	shards []field.Source

	truth []int     // qualifying sensors of the epoch being checked
	vals  []float64 // their readings of one attribute
	// want[g] and seen[g] equal mark when sensor g qualifies, or has a
	// row, in the epoch being checked; bumping mark clears both.
	want, seen []uint64
	mark       uint64
}

// NewWorld builds the truth for `shards` PaperGrid(side) regions whose
// simulations are seeded seed, seed+1, ... (a single gateway is shards=1).
func NewWorld(side, shards int, seed int64) (*World, error) {
	srcs := make([]field.Source, shards)
	spn := 0
	for i := range srcs {
		topo, err := topology.PaperGrid(side)
		if err != nil {
			return nil, err
		}
		spn = topo.Size() - 1
		srcs[i] = field.New(topo, field.Config{Seed: seed + int64(i)})
	}
	return FromSources(spn, srcs...), nil
}

// FromSources builds a world from explicit per-shard sources with spn
// sensors each (tests use hand-made sources).
func FromSources(spn int, srcs ...field.Source) *World {
	n := spn*len(srcs) + 1
	return &World{spn: spn, shards: srcs, want: make([]uint64, n), seen: make([]uint64, n)}
}

// Sensors returns the global sensor count.
func (w *World) Sensors() int { return w.spn * len(w.shards) }

// Reading returns what global sensor g reads for a at t. The nodeid
// pseudo-attribute is the global id.
func (w *World) Reading(g int, a field.Attr, t sim.Time) float64 {
	if a == field.AttrNodeID {
		return float64(g)
	}
	s := (g - 1) / w.spn
	return w.shards[s].Reading(topology.NodeID(g-s*w.spn), a, t)
}

// qualifies evaluates q's conjunctive predicates for sensor g at t.
func (w *World) qualifies(q query.Query, g int, t sim.Time) bool {
	for _, p := range q.Preds {
		v := w.Reading(g, p.Attr, t)
		if v < p.Min || v > p.Max {
			return false
		}
	}
	return true
}

// qualifying returns the global ids of the sensors satisfying q at t,
// ascending, in a buffer the next call reuses.
func (w *World) qualifying(q query.Query, t sim.Time) []int {
	w.truth = w.truth[:0]
	for g := 1; g <= w.Sensors(); g++ {
		if w.qualifies(q, g, t) {
			w.truth = append(w.truth, g)
		}
	}
	return w.truth
}

// CheckContent classifies one epoch's content (not its sequencing).
func (w *World) CheckContent(q query.Query, e Epoch) Result {
	if q.GroupBy != nil || len(q.Wins) > 0 {
		return Result{OutOfBounds, "oracle: GROUP BY and windowed queries are not modelled"}
	}
	truth := w.qualifying(q, e.At)
	if len(q.Aggs) > 0 {
		return w.checkAggs(q, e, truth)
	}
	return w.checkRows(q, e, truth)
}

func (w *World) checkRows(q query.Query, e Epoch, truth []int) Result {
	w.mark++
	for _, g := range truth {
		w.want[g] = w.mark
	}
	for _, r := range e.Rows {
		if r.Node < 1 || r.Node > w.Sensors() || w.want[r.Node] != w.mark {
			return Result{Foreign, fmt.Sprintf("sensor %d does not qualify at %v", r.Node, e.At)}
		}
		if w.seen[r.Node] == w.mark {
			return Result{Duplicate, fmt.Sprintf("sensor %d twice at %v", r.Node, e.At)}
		}
		w.seen[r.Node] = w.mark
		for _, a := range q.Attrs {
			if _, ok := r.Values[a]; !ok {
				return Result{WrongValue, fmt.Sprintf("sensor %d row lacks %s at %v", r.Node, a, e.At)}
			}
		}
		for a, v := range r.Values {
			if tv := w.Reading(r.Node, a, e.At); v != tv {
				return Result{WrongValue, fmt.Sprintf("sensor %d %s=%v, field reads %v at %v", r.Node, a, v, tv, e.At)}
			}
		}
	}
	if len(e.Rows) < len(truth) {
		return Result{Lost, fmt.Sprintf("%d of %d qualifying rows at %v", len(e.Rows), len(truth), e.At)}
	}
	return Result{Exact, ""}
}

func (w *World) checkAggs(q query.Query, e Epoch, truth []int) Result {
	worst := Result{Exact, ""}
	for _, want := range q.Aggs {
		got, ok := findAgg(e.Aggs, want)
		if !ok {
			got = Agg{Op: want.Op, Attr: want.Attr, Empty: true}
		}
		w.vals = w.vals[:0]
		for _, g := range truth {
			w.vals = append(w.vals, w.Reading(g, want.Attr, e.At))
		}
		r := classifyAgg(got, w.vals)
		if r.Verdict != Exact {
			r.Detail = fmt.Sprintf("%s at %v: %s", want, e.At, r.Detail)
		}
		if r.Verdict > worst.Verdict {
			worst = r
		}
	}
	return worst
}

func findAgg(aggs []Agg, want query.Agg) (Agg, bool) {
	for _, a := range aggs {
		if a.Op == want.Op && a.Attr == want.Attr {
			return a, true
		}
	}
	return Agg{}, false
}

// classifyAgg compares one delivered aggregate with the qualifying
// readings. SUM and AVG allow a relative rounding slack, since partials are
// summed in a different order than here; COUNT, MIN and MAX must be exact.
func classifyAgg(got Agg, vals []float64) Result {
	if len(vals) == 0 {
		if got.Empty {
			return Result{Exact, ""}
		}
		return Result{OutOfBounds, fmt.Sprintf("value %v where no sensor qualifies", got.Value)}
	}
	if got.Empty {
		return Result{Lost, fmt.Sprintf("empty where %d sensors qualify", len(vals))}
	}
	lo, hi, sum, abs := math.Inf(1), math.Inf(-1), 0.0, 0.0
	for _, v := range vals {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
		sum += v
		abs += math.Abs(v)
	}
	v := got.Value
	slack := 1e-9 * (abs + 1)
	member := func() bool {
		for _, x := range vals {
			if x == v {
				return true
			}
		}
		return false
	}
	switch got.Op {
	case query.Count:
		n := float64(len(vals))
		switch {
		case v == n:
			return Result{Exact, ""}
		case v >= 0 && v < n && v == math.Trunc(v):
			return Result{Lost, fmt.Sprintf("COUNT %v, truth %v", v, n)}
		}
		return Result{OutOfBounds, fmt.Sprintf("COUNT %v, truth %v", v, n)}
	case query.Max:
		switch {
		case v == hi:
			return Result{Exact, ""}
		case v < hi && member():
			return Result{Lost, fmt.Sprintf("MAX %v, truth %v", v, hi)}
		}
		return Result{OutOfBounds, fmt.Sprintf("MAX %v, truth %v", v, hi)}
	case query.Min:
		switch {
		case v == lo:
			return Result{Exact, ""}
		case v > lo && member():
			return Result{Lost, fmt.Sprintf("MIN %v, truth %v", v, lo)}
		}
		return Result{OutOfBounds, fmt.Sprintf("MIN %v, truth %v", v, lo)}
	case query.Sum:
		// Readings are non-negative, so every subset sums into [lo, sum]
		// (a non-empty one at least its smallest member).
		switch {
		case math.Abs(v-sum) <= slack:
			return Result{Exact, ""}
		case v >= lo-slack && v < sum:
			return Result{Lost, fmt.Sprintf("SUM %v, truth %v", v, sum)}
		}
		return Result{OutOfBounds, fmt.Sprintf("SUM %v, truth %v", v, sum)}
	case query.Avg:
		avg := sum / float64(len(vals))
		switch {
		case math.Abs(v-avg) <= slack:
			return Result{Exact, ""}
		case v >= lo-slack && v <= hi+slack:
			return Result{Lost, fmt.Sprintf("AVG %v, truth %v", v, avg)}
		}
		return Result{OutOfBounds, fmt.Sprintf("AVG %v, truth %v", v, avg)}
	}
	return Result{OutOfBounds, fmt.Sprintf("unknown operator %v", got.Op)}
}

// Stream checks one subscription's epochs in delivery order: sequencing
// first (Seq +1, At strictly increasing), then content.
type Stream struct {
	Query   query.Query
	lastSeq uint64
	lastAt  sim.Time
	started bool
}

// NewStream starts checking a subscription to q.
func NewStream(q query.Query) *Stream { return &Stream{Query: q.Normalize()} }

// Check classifies the next delivered epoch of the stream.
func (s *Stream) Check(w *World, e Epoch) Result {
	if s.started {
		if e.Seq != s.lastSeq+1 {
			return Result{SeqGap, fmt.Sprintf("seq %d after %d", e.Seq, s.lastSeq)}
		}
		if e.At <= s.lastAt {
			return Result{AtOrder, fmt.Sprintf("at %v after %v", e.At, s.lastAt)}
		}
	} else if e.Seq != 1 {
		return Result{SeqGap, fmt.Sprintf("first seq %d", e.Seq)}
	}
	s.started, s.lastSeq, s.lastAt = true, e.Seq, e.At
	return w.CheckContent(s.Query, e)
}

// Tally counts verdicts by class.
type Tally struct {
	Checked int64
	Counts  map[Verdict]int64
	// First keeps the first detail seen per non-exact verdict.
	First map[Verdict]string
}

// Add records one verdict.
func (t *Tally) Add(r Result) {
	if t.Counts == nil {
		t.Counts = make(map[Verdict]int64)
		t.First = make(map[Verdict]string)
	}
	t.Checked++
	t.Counts[r.Verdict]++
	if r.Verdict != Exact {
		if _, ok := t.First[r.Verdict]; !ok {
			t.First[r.Verdict] = r.Detail
		}
	}
}

// Summary renders the non-exact verdict counts, stable order.
func (t *Tally) Summary() string {
	var vs []Verdict
	for v, c := range t.Counts {
		if v != Exact && c > 0 {
			vs = append(vs, v)
		}
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	out := fmt.Sprintf("checked=%d", t.Checked)
	for _, v := range vs {
		out += fmt.Sprintf(" %s=%d (first: %s)", v, t.Counts[v], t.First[v])
	}
	return out
}

package oracle

import (
	"testing"

	"repro/internal/field"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/topology"
)

// table is a hand-made field: light = base + 10*local id, temp = local id,
// the same at every instant.
type table struct{ base float64 }

func (tb table) Reading(id topology.NodeID, a field.Attr, _ sim.Time) float64 {
	switch a {
	case field.AttrLight:
		return tb.base + 10*float64(id)
	case field.AttrTemp:
		return float64(id)
	}
	return 0
}

// world: two shards of four sensors. Global ids 1..4 read light 10..40,
// global ids 5..8 (local 1..4 on shard 1) read light 110..140.
func world() *World { return FromSources(4, table{0}, table{100}) }

func light(g int) float64 {
	if g <= 4 {
		return 10 * float64(g)
	}
	return 100 + 10*float64(g-4)
}

func row(g int) Row {
	return Row{Node: g, Values: map[field.Attr]float64{field.AttrLight: light(g)}}
}

const at = sim.Time(4096e6)

func TestReadingMapsGlobalToShardLocal(t *testing.T) {
	w := world()
	if got := w.Reading(6, field.AttrLight, at); got != 120 {
		t.Fatalf("global 6 light = %v, want 120 (shard 1 local 2)", got)
	}
	if got := w.Reading(6, field.AttrNodeID, at); got != 6 {
		t.Fatalf("global 6 nodeid = %v, want the global id", got)
	}
	if w.Sensors() != 8 {
		t.Fatalf("sensors = %d, want 8", w.Sensors())
	}
}

func TestRowVerdicts(t *testing.T) {
	// Sensors 3, 4, 5 qualify: light 30, 40, 110.
	q := query.MustParse("SELECT light WHERE light >= 25 AND light <= 115 EPOCH DURATION 4096")
	wrong := row(4)
	wrong.Values = map[field.Attr]float64{field.AttrLight: 41}
	missingAttr := Row{Node: 3, Values: map[field.Attr]float64{}}
	cases := []struct {
		name string
		rows []Row
		want Verdict
	}{
		{"exact", []Row{row(3), row(4), row(5)}, Exact},
		{"lost contribution", []Row{row(3), row(5)}, Lost},
		{"nothing delivered", nil, Lost},
		{"wrong value", []Row{row(3), wrong, row(5)}, WrongValue},
		{"missing projected attribute", []Row{missingAttr, row(4), row(5)}, WrongValue},
		{"foreign sensor", []Row{row(2), row(3), row(4), row(5)}, Foreign},
		{"sensor outside the deployment", []Row{row(3), row(4), row(5), {Node: 9}}, Foreign},
		{"duplicate", []Row{row(3), row(4), row(4), row(5)}, Duplicate},
	}
	w := world()
	for _, c := range cases {
		got := w.CheckContent(q, Epoch{At: at, Rows: c.rows})
		if got.Verdict != c.want {
			t.Errorf("%s: verdict %v (%s), want %v", c.name, got.Verdict, got.Detail, c.want)
		}
	}
}

func TestReusedWorldForgetsTheLastEpoch(t *testing.T) {
	// One World checks epoch after epoch with reused buffers: a sensor that
	// qualified, or delivered a row, in the last epoch must not count in
	// the next.
	w := world()
	wide := query.MustParse("SELECT light WHERE light >= 25 AND light <= 115 EPOCH DURATION 4096")
	narrow := query.MustParse("SELECT light WHERE light >= 35 AND light <= 45 EPOCH DURATION 4096")
	if got := w.CheckContent(wide, Epoch{At: at, Rows: []Row{row(3), row(4), row(5)}}); got.Verdict != Exact {
		t.Fatalf("wide: verdict %v (%s), want exact", got.Verdict, got.Detail)
	}
	if got := w.CheckContent(narrow, Epoch{At: at, Rows: []Row{row(3), row(4)}}); got.Verdict != Foreign {
		t.Fatalf("narrow with sensor 3: verdict %v (%s), want foreign-sensor", got.Verdict, got.Detail)
	}
	if got := w.CheckContent(narrow, Epoch{At: at, Rows: []Row{row(4)}}); got.Verdict != Exact {
		t.Fatalf("narrow: verdict %v (%s), want exact", got.Verdict, got.Detail)
	}
	if got := w.CheckContent(wide, Epoch{At: at, Rows: []Row{row(4), row(5)}}); got.Verdict != Lost {
		t.Fatalf("wide missing sensor 3: verdict %v (%s), want lost-contribution", got.Verdict, got.Detail)
	}
}

func TestNodeIDRegionUsesGlobalIDs(t *testing.T) {
	q := query.MustParse("SELECT nodeid, light WHERE nodeid >= 4 AND nodeid <= 6 EPOCH DURATION 4096")
	w := world()
	rows := make([]Row, 0, 3)
	for g := 4; g <= 6; g++ {
		rows = append(rows, Row{Node: g, Values: map[field.Attr]float64{
			field.AttrNodeID: float64(g), field.AttrLight: light(g)}})
	}
	if got := w.CheckContent(q, Epoch{At: at, Rows: rows}); got.Verdict != Exact {
		t.Fatalf("verdict %v (%s), want exact", got.Verdict, got.Detail)
	}
	// A shard-local nodeid value leaking through is a wrong value.
	rows[2].Values[field.AttrNodeID] = 2
	if got := w.CheckContent(q, Epoch{At: at, Rows: rows}); got.Verdict != WrongValue {
		t.Fatalf("local nodeid: verdict %v, want wrong-value", got.Verdict)
	}
}

func TestAggregateVerdicts(t *testing.T) {
	// Qualifying light readings: 30, 40, 110, 120 (sensors 3..6).
	agg := func(op query.AggOp, v float64) []Agg {
		return []Agg{{Op: op, Attr: field.AttrLight, Value: v}}
	}
	cases := []struct {
		name string
		op   string
		aggs []Agg
		want Verdict
	}{
		{"count exact", "COUNT", agg(query.Count, 4), Exact},
		{"count below", "COUNT", agg(query.Count, 3), Lost},
		{"count above", "COUNT", agg(query.Count, 5), OutOfBounds},
		{"count fractional", "COUNT", agg(query.Count, 2.5), OutOfBounds},
		{"max exact", "MAX", agg(query.Max, 120), Exact},
		{"max below, a real reading", "MAX", agg(query.Max, 110), Lost},
		{"max below, no reading", "MAX", agg(query.Max, 111), OutOfBounds},
		{"max above", "MAX", agg(query.Max, 130), OutOfBounds},
		{"min exact", "MIN", agg(query.Min, 30), Exact},
		{"min above, a real reading", "MIN", agg(query.Min, 40), Lost},
		{"min below", "MIN", agg(query.Min, 10), OutOfBounds},
		{"sum exact within rounding", "SUM", agg(query.Sum, 300+1e-12), Exact},
		{"sum below", "SUM", agg(query.Sum, 150), Lost},
		{"sum above", "SUM", agg(query.Sum, 301), OutOfBounds},
		{"sum below any member", "SUM", agg(query.Sum, 5), OutOfBounds},
		{"avg exact", "AVG", agg(query.Avg, 75), Exact},
		{"avg of a subset", "AVG", agg(query.Avg, 35), Lost},
		{"avg beyond the readings", "AVG", agg(query.Avg, 125), OutOfBounds},
		{"empty where sensors qualify", "MAX", []Agg{{Op: query.Max, Attr: field.AttrLight, Empty: true}}, Lost},
		{"aggregate absent", "MAX", nil, Lost},
	}
	w := world()
	for _, c := range cases {
		q := query.MustParse("SELECT " + c.op + "(light) WHERE light >= 25 AND light <= 125 EPOCH DURATION 4096")
		got := w.CheckContent(q, Epoch{At: at, Aggs: c.aggs})
		if got.Verdict != c.want {
			t.Errorf("%s: verdict %v (%s), want %v", c.name, got.Verdict, got.Detail, c.want)
		}
	}
}

func TestEmptyTruth(t *testing.T) {
	q := query.MustParse("SELECT MAX(light) WHERE light >= 500 EPOCH DURATION 4096")
	w := world()
	empty := []Agg{{Op: query.Max, Attr: field.AttrLight, Empty: true}}
	if got := w.CheckContent(q, Epoch{At: at, Aggs: empty}); got.Verdict != Exact {
		t.Fatalf("empty truth, empty result: %v", got.Verdict)
	}
	val := []Agg{{Op: query.Max, Attr: field.AttrLight, Value: 40}}
	if got := w.CheckContent(q, Epoch{At: at, Aggs: val}); got.Verdict != OutOfBounds {
		t.Fatalf("empty truth, a value: %v, want out-of-bounds", got.Verdict)
	}
}

func TestWorstAggregateWins(t *testing.T) {
	q := query.MustParse("SELECT MAX(light), COUNT(light) WHERE light >= 25 AND light <= 125 EPOCH DURATION 4096")
	aggs := []Agg{
		{Op: query.Max, Attr: field.AttrLight, Value: 110}, // lost
		{Op: query.Count, Attr: field.AttrLight, Value: 9}, // out of bounds
	}
	if got := world().CheckContent(q, Epoch{At: at, Aggs: aggs}); got.Verdict != OutOfBounds {
		t.Fatalf("verdict %v, want the graver out-of-bounds", got.Verdict)
	}
}

func TestStreamSequencing(t *testing.T) {
	q := query.MustParse("SELECT COUNT(light) WHERE light >= 25 AND light <= 125 EPOCH DURATION 4096")
	ok := []Agg{{Op: query.Count, Attr: field.AttrLight, Value: 4}}
	w := world()
	cases := []struct {
		name string
		seqs []uint64
		ats  []sim.Time
		want Verdict // verdict of the last epoch
	}{
		{"in order", []uint64{1, 2, 3}, []sim.Time{at, 2 * at, 3 * at}, Exact},
		{"first seq not one", []uint64{2}, []sim.Time{at}, SeqGap},
		{"gap", []uint64{1, 2, 4}, []sim.Time{at, 2 * at, 3 * at}, SeqGap},
		{"repeat", []uint64{1, 1}, []sim.Time{at, 2 * at}, SeqGap},
		{"at repeats", []uint64{1, 2}, []sim.Time{at, at}, AtOrder},
		{"at goes back", []uint64{1, 2}, []sim.Time{2 * at, at}, AtOrder},
	}
	for _, c := range cases {
		s := NewStream(q)
		var got Result
		for i := range c.seqs {
			got = s.Check(w, Epoch{Seq: c.seqs[i], At: c.ats[i], Aggs: ok})
		}
		if got.Verdict != c.want {
			t.Errorf("%s: verdict %v (%s), want %v", c.name, got.Verdict, got.Detail, c.want)
		}
	}
}

func TestFatalClasses(t *testing.T) {
	if Exact.Fatal() || Lost.Fatal() {
		t.Fatal("exact and lost are not fatal")
	}
	for _, v := range []Verdict{WrongValue, Foreign, Duplicate, OutOfBounds, SeqGap, AtOrder} {
		if !v.Fatal() {
			t.Errorf("%v must be fatal", v)
		}
	}
	var tl Tally
	tl.Add(Result{Exact, ""})
	tl.Add(Result{Lost, "x"})
	tl.Add(Result{Foreign, "y"})
	if tl.Checked != 3 || tl.Counts[Foreign] != 1 || tl.Counts[Lost] != 1 || tl.First[Lost] != "x" {
		t.Fatalf("tally %+v", tl)
	}
}

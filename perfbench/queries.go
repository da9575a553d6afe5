package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/field"
	"repro/internal/query"
	"repro/perfbench/oracle"
)

// genPool draws n serving-tier queries over sensors 1..sensors. Kind and
// epoch follow the index (every third query an acquisition, epochs in
// turn), so pools of different seeds cost alike; regions, value ranges and
// aggregates are drawn.
func genPool(rng *rand.Rand, n, sensors int, epochs []time.Duration) []query.Query {
	pool := make([]query.Query, n)
	for i := range pool {
		pool[i] = genQuery(rng, sensors, epochs[i%len(epochs)], i%3 == 0)
	}
	return pool
}

// genQuery draws one query: an optional nodeid region (a contiguous id
// range), an optional value predicate on light or temp, and either an
// acquisition of nodeid and light or temp, or one of AVG/SUM/COUNT/MAX/MIN
// over light or temp.
func genQuery(rng *rand.Rand, sensors int, epoch time.Duration, acquisition bool) query.Query {
	q := query.Query{Epoch: epoch}
	if rng.Float64() < 0.6 {
		width := max(1, int(float64(sensors)*(0.25+0.75*rng.Float64())))
		lo := 1 + rng.Intn(sensors-width+1)
		q.Preds = append(q.Preds, query.Predicate{Attr: field.AttrNodeID, Min: float64(lo), Max: float64(lo + width - 1)})
	}
	attrs := []field.Attr{field.AttrLight, field.AttrTemp}
	if rng.Float64() < 0.4 {
		a := attrs[rng.Intn(2)]
		lo, hi := a.Range(sensors)
		cover := 0.5 + 0.5*rng.Float64()
		start := lo + (hi-lo)*(1-cover)*rng.Float64()
		q.Preds = append(q.Preds, query.Predicate{Attr: a, Min: start, Max: start + (hi-lo)*cover})
	}
	if acquisition {
		q.Attrs = []field.Attr{field.AttrNodeID, attrs[rng.Intn(2)]}
	} else {
		ops := []query.AggOp{query.Avg, query.Sum, query.Count, query.Max, query.Min}
		q.Aggs = []query.Agg{{Op: ops[rng.Intn(len(ops))], Attr: attrs[rng.Intn(2)]}}
	}
	return q.Normalize()
}

// epochCheck classifies one delivered epoch of a stream and books it: a
// lost contribution counts as a failed operation of the given class, any
// verdict no dropped contribution explains is returned as an error.
func epochCheck(ops *opStats, st *oracle.Stream, w *oracle.World, e oracle.Epoch, lostClass string) error {
	ops.attempted++
	ops.deliveries++
	r := st.Check(w, e)
	switch {
	case r.Verdict.Fatal():
		return fmt.Errorf("%s: %s: %s", st.Query, r.Verdict, r.Detail)
	case r.Verdict == oracle.Lost:
		ops.fail(lostClass)
	}
	return nil
}

package difftest

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"ivnt/internal/engine"
	"ivnt/internal/memgov"
	"ivnt/internal/oracle"
	"ivnt/internal/query"
	"ivnt/internal/relation"
	"ivnt/internal/segstore"
)

// The footer-answer workload: the seeded rows plus a low-cardinality
// string key "g" and a numeric column "m" whose cells, per key, follow
// one flavor. Sealed one segment per key, the flavors cover every rule
// of segstore's footer answers, answerable or not: plain floats, -0/+0
// ties at the minimum and at the maximum, ints, nulls, all-null, ints
// mixed with floats, and NaN.
const (
	aggKey = "g"
	aggCol = "m"
)

var aggFlavors = []string{"floats", "zero-min", "zero-max", "ints", "nulls", "all-null", "mixed", "nan"}

// aggSQL is the served benchmark's GROUP BY shape over the workload.
var aggSQL = fmt.Sprintf("SELECT %s, count(*) AS n, min(%s) AS lo, max(%s) AS hi FROM trace GROUP BY %s",
	aggKey, aggCol, aggCol, aggKey)

// aggWorkload derives the footer-answer workload from w.
func aggWorkload(w *Workload) *Workload {
	rng := rand.New(rand.NewSource(w.Seed ^ 0xa99e))
	keys := make([]relation.Value, 1+rng.Intn(6))
	for i := range keys {
		keys[i] = relation.Str(wordPool[rng.Intn(len(wordPool))])
	}
	if rng.Intn(4) == 0 {
		keys = append(keys, relation.Null()) // a null key groups apart
	}
	flavor := map[string]string{}
	cols := append(append([]relation.Column(nil), w.Schema.Cols...),
		relation.Column{Name: aggKey, Kind: relation.KindString},
		relation.Column{Name: aggCol, Kind: relation.KindFloat})
	rows := make([]relation.Row, len(w.Rows))
	for i, r := range w.Rows {
		k := keys[rng.Intn(len(keys))]
		fl, ok := flavor[k.AsString()]
		if !ok {
			fl = aggFlavors[rng.Intn(len(aggFlavors))]
			flavor[k.AsString()] = fl
		}
		rows[i] = append(append(make(relation.Row, 0, len(cols)), r...), k, aggCell(rng, fl))
	}
	return &Workload{Seed: w.Seed, Schema: relation.NewSchema(cols...), Rows: rows, Ops: w.Ops}
}

// aggCell draws one "m" cell of the given flavor.
func aggCell(rng *rand.Rand, flavor string) relation.Value {
	f := relation.Float(float64(rng.Intn(401)-200) / 8)
	switch flavor {
	case "zero-min", "zero-max":
		// ±0 ties at the extreme: the other cells lie on one side.
		v := math.Abs(f.F)
		if flavor == "zero-max" {
			v = -v
		}
		return relation.Float([]float64{0, math.Copysign(0, -1), v}[rng.Intn(3)])
	case "ints":
		return relation.Int(int64(rng.Intn(401) - 200))
	case "nulls":
		if rng.Intn(2) == 0 {
			return relation.Null()
		}
	case "all-null":
		return relation.Null()
	case "mixed":
		if rng.Intn(2) == 0 {
			return relation.Int(int64(rng.Intn(51) - 25))
		}
	case "nan":
		if rng.Intn(5) == 0 {
			return relation.Float(math.NaN())
		}
	}
	return f
}

// buildClusteredStore seals w's rows one segment per distinct aggKey
// value (first-appearance order, rows in input order within a key): the
// segment-per-signal layout extract and the served benchmark seal.
func buildClusteredStore(dir string, w *Workload) (*segstore.Store, error) {
	st, err := segstore.Open(dir, w.Schema, segstore.Options{Compress: w.Seed%2 == 0, Encodings: true})
	if err != nil {
		return nil, err
	}
	ki := w.Schema.MustIndex(aggKey)
	var order []string
	byKey := map[string][]relation.Row{}
	for _, r := range w.Rows {
		k := r[ki].AsString()
		if _, ok := byKey[k]; !ok {
			order = append(order, k)
		}
		byKey[k] = append(byKey[k], r.Clone())
	}
	for _, k := range order {
		if err := st.AppendSegment(byKey[k]); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// checkQueryAgg holds query.Run of aggSQL bitwise-equal to a reference
// computed without footers, over stores of the footer-answer workload:
//
//   - P ∈ {1, 2, 7} row-split segments, where keys straddle segments:
//     the oracle's per-segment partials, merged (NaN makes min/max
//     depend on where partials split, so the merge is the reference);
//   - one segment per key, then the same store compacted (compaction
//     merges adjacent keys into one segment): the oracle's sequential
//     aggregate over the full scan, since each key's rows stay in one
//     segment, in order.
//
// The segment-per-key store also runs once on the TCP cluster, where
// answered segments are pre-committed driver-side. It returns the
// mismatch reports and the number of segments answered from footers.
func (e *Env) checkQueryAgg(ctx context.Context, w *Workload, dir string) ([]string, int) {
	aw := aggWorkload(w)
	var fails []string
	fail := func(invariant, detail string) {
		fails = append(fails, Report(aw, invariant, detail+"\n  statement: "+aggSQL))
	}
	plan, err := compileFor(aw, aggSQL)
	if err != nil {
		fail("query-agg-compile", err.Error())
		return fails, 0
	}
	stage := append(append([]engine.OpDesc(nil), plan.ScanOps...), engine.PartialAgg(plan.GroupBy, plan.Aggs))
	answered := 0
	run := func(name string, exec engine.Executor, st *segstore.Store, want *relation.Relation) {
		res, err := query.Run(ctx, exec, storeSources{st}, plan, engine.PlanConfig{})
		if err != nil {
			fail(name, err.Error())
			return
		}
		answered += res.Stats.SegmentsAnswered
		if d := DiffExact(want, res.Rel); d != "" {
			fail(name, fmt.Sprintf("%s\n  (%d of %d segments answered from footers)", d, res.Stats.SegmentsAnswered, st.NumSegments()))
		}
	}
	full := func(name string, st *segstore.Store) *relation.Relation {
		rel, err := st.Scan(ctx, engine.Pushdown{})
		if err != nil {
			fail(name, err.Error())
			return nil
		}
		return rel
	}

	for _, p := range []int{1, 2, 7} {
		name := fmt.Sprintf("query-agg-split p=%d", p)
		st, err := buildScanStore(filepath.Join(dir, fmt.Sprintf("agg-p%d", p)), aw, p)
		if err != nil {
			fail(name, err.Error())
			continue
		}
		rel := full(name, st)
		if rel == nil {
			continue
		}
		partials, err := oracle.RunStage(rel, stage)
		if err != nil {
			fail(name, err.Error())
			continue
		}
		want, err := engine.MergePartials(partials, plan.GroupBy, plan.Aggs)
		if err != nil {
			fail(name, err.Error())
			continue
		}
		run(name, e.Local, st, want)
	}

	st, err := buildClusteredStore(filepath.Join(dir, "agg-keyed"), aw)
	if err != nil {
		fail("query-agg-keyed", err.Error())
		return fails, answered
	}
	for _, compacted := range []bool{false, true} {
		name := "query-agg-keyed"
		if compacted {
			name = "query-agg-compacted"
			if _, err := st.Compact(segstore.CompactOptions{TargetRows: len(aw.Rows)/2 + 1}); err != nil {
				fail(name, err.Error())
				return fails, answered
			}
		}
		rel := full(name, st)
		if rel == nil {
			continue
		}
		want, err := oracle.FinalAggregate(rel.Schema, rel.Rows(), plan.GroupBy, plan.Aggs)
		if err != nil {
			fail(name, err.Error())
			continue
		}
		run(name, e.Local, st, want)
		if !compacted {
			run(name+" cluster", e.driver(), st, want)
		}
	}
	return fails, answered
}

// TestQueryAggShufflePlanGroupsByRendering replays query-family seed 4
// under a 4 KiB memory budget, where its GROUP BY takes the shuffle
// plan. The key column holds a null and an empty string, which the
// merge and the oracle group together, so the shuffle must route them
// to one partition; typed-hash routing once split that group in two.
func TestQueryAggShufflePlanGroupsByRendering(t *testing.T) {
	g := memgov.Default()
	old := g.Budget()
	g.SetBudget(4 << 10)
	defer g.SetBudget(old)
	ctx := context.Background()
	w := Generate(4)
	key := stringCol(w)
	sql := fmt.Sprintf("SELECT %s, count(*) AS n FROM trace GROUP BY %s ORDER BY %s", key, key, key)
	plan, err := compileFor(w, sql)
	if err != nil {
		t.Fatal(err)
	}
	st, err := buildScanStore(filepath.Join(t.TempDir(), "s"), w, 2)
	if err != nil {
		t.Fatal(err)
	}
	full, err := st.Scan(ctx, engine.Pushdown{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := oracle.FinalAggregate(full.Schema, full.Rows(), plan.GroupBy, plan.Aggs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.SortRelation(ref, key)
	if err != nil {
		t.Fatal(err)
	}
	res, err := query.Run(ctx, engine.NewLocal(2), storeSources{st}, plan, engine.PlanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.PlanKind != engine.PlanShuffle {
		t.Fatalf("plan = %v, want the shuffle plan under a 4 KiB budget", res.PlanKind)
	}
	if d := diffRowsInOrder(want, res.Rel); d != "" {
		t.Fatal(Report(w, "query-agg-shuffle-rendering", d+"\n  statement: "+sql))
	}
}

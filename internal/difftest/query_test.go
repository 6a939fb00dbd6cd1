package difftest

import (
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"ivnt/internal/engine"
	"ivnt/internal/oracle"
	"ivnt/internal/query"
	"ivnt/internal/relation"
	"ivnt/internal/segstore"
)

// -difftest.query narrows a replay to the query-frontend invariants:
// with -difftest.seed=<seed> it skips the main differential run, so the
// failing query check reproduces alone (and verbosely).
var flagQuery = flag.Bool("difftest.query", false,
	"replay only the query-frontend invariants (pair with -difftest.seed to reproduce a query failure)")

// queryAtom synthesizes one `col op literal` predicate from the
// workload's own cell values (so it is selective, not vacuous).
func queryAtom(w *Workload, rng *rand.Rand) string {
	type cand struct{ col, lit string }
	var cands []cand
	for ci, c := range w.Schema.Cols {
		switch c.Kind {
		case relation.KindInt, relation.KindFloat, relation.KindString:
		default:
			continue
		}
		for _, r := range w.Rows {
			v := r[ci]
			switch v.K {
			case relation.KindInt:
				cands = append(cands, cand{c.Name, strconv.FormatInt(v.I, 10)})
			case relation.KindFloat:
				if !math.IsNaN(v.F) && !math.IsInf(v.F, 0) {
					cands = append(cands, cand{c.Name, strconv.FormatFloat(v.F, 'g', -1, 64)})
				}
			case relation.KindString:
				cands = append(cands, cand{c.Name, strconv.Quote(v.S)})
			}
		}
	}
	if len(cands) == 0 {
		return "c0 >= 0" // empty input: any predicate will do
	}
	c := cands[rng.Intn(len(cands))]
	op := []string{"<", "<=", ">", ">=", "=="}[rng.Intn(5)]
	return fmt.Sprintf("%s %s %s", c.col, op, c.lit)
}

// genQuery derives a SELECT statement plus the op tree a caller would
// hand-build for it: a WHERE of 1..3 atoms mixed over && and || and a
// random nonempty column subset in select order. The statement embeds
// the predicate source verbatim, which is what makes the compiled plan
// byte-identical to the hand-built one.
func genQuery(w *Workload) (sql string, ops []engine.OpDesc) {
	rng := rand.New(rand.NewSource(w.Seed ^ 0x9e37))
	pred := queryAtom(w, rng)
	for extra := rng.Intn(3); extra > 0; extra-- {
		conn := []string{" && ", " || "}[rng.Intn(2)]
		pred = pred + conn + queryAtom(w, rng)
	}
	var cols []string
	for _, c := range w.Schema.Cols {
		if rng.Intn(2) == 0 {
			cols = append(cols, c.Name)
		}
	}
	if len(cols) == 0 {
		cols = []string{w.Schema.Cols[0].Name}
	}
	sql = "SELECT " + strings.Join(cols, ", ") + " FROM trace WHERE " + pred
	return sql, []engine.OpDesc{engine.Filter(pred), engine.Project(cols...)}
}

// stringCol returns the first string column (genSchema guarantees one).
func stringCol(w *Workload) string {
	for _, c := range w.Schema.Cols {
		if c.Kind == relation.KindString {
			return c.Name
		}
	}
	return ""
}

type storeSources struct{ src engine.ScanSource }

func (s storeSources) Source(string) (engine.ScanSource, error) { return s.src, nil }

func compileFor(w *Workload, sql string) (*query.Plan, error) {
	q, err := query.Parse(sql)
	if err != nil {
		return nil, err
	}
	return query.Compile(q, func(rel string) (relation.Schema, error) {
		if rel != "trace" {
			return relation.Schema{}, fmt.Errorf("unknown relation %q", rel)
		}
		return w.Schema, nil
	})
}

// checkQuery runs the query-frontend invariant family for one workload.
// The statement's compiled scan ops must be the very hand-built tree
// (same OpDesc data, same stage fingerprint), and for P ∈ {1, 2, 7}
// sealed segments three subjects stay bitwise-equal —
//
//	oracle(full scan + ops)  ==  hand-built ScanStage  ==  parsed query.Run
//
// — then a GROUP BY count(*) statement must match the hand-built
// DistributedAggregate row for row after the governed sort.
func checkQuery(ctx context.Context, local *engine.Local, w *Workload, dir string) []string {
	var fails []string
	fail := func(invariant, detail string) {
		fails = append(fails, Report(w, invariant, detail))
	}
	sql, ops := genQuery(w)
	plan, err := compileFor(w, sql)
	if err != nil {
		fail("query-compile", fmt.Sprintf("%s\n  statement: %s", err, sql))
		return fails
	}
	if !reflect.DeepEqual(plan.ScanOps, ops) {
		fail("query-plan", fmt.Sprintf("compiled ops differ from hand-built:\n  statement: %s\n  got  %s\n  want %s",
			sql, FormatOps(plan.ScanOps), FormatOps(ops)))
		return fails
	}
	if got, want := engine.StageFingerprint(w.Schema, plan.ScanOps), engine.StageFingerprint(w.Schema, ops); got != want {
		fail("query-fingerprint", fmt.Sprintf("compiled stage fingerprint %x != hand-built %x (statement: %s)", got, want, sql))
	}

	key := stringCol(w)
	aggSQL := fmt.Sprintf("SELECT %s, count(*) AS n FROM trace GROUP BY %s ORDER BY %s", key, key, key)

	for _, p := range []int{1, 2, 7} {
		st, err := buildScanStore(filepath.Join(dir, fmt.Sprintf("p%d", p)), w, p)
		if err != nil {
			fail(fmt.Sprintf("query-store p=%d", p), err.Error())
			continue
		}
		full, err := st.Scan(ctx, engine.Pushdown{})
		if err != nil {
			fail(fmt.Sprintf("query-full p=%d", p), err.Error())
			continue
		}
		ref, err := oracle.RunStage(full, ops)
		if err != nil {
			fail(fmt.Sprintf("query-oracle p=%d", p), err.Error())
			continue
		}
		hand, _, err := engine.ScanStage(ctx, local, st, ops)
		if err != nil {
			fail(fmt.Sprintf("query-hand p=%d", p), err.Error())
		} else if d := DiffExact(ref, hand); d != "" {
			fail(fmt.Sprintf("query-hand p=%d", p), d)
		}
		res, err := query.Run(ctx, local, storeSources{st}, plan, engine.PlanConfig{})
		if err != nil {
			fail(fmt.Sprintf("query-parsed p=%d", p), err.Error())
		} else if d := DiffExact(ref, res.Rel); d != "" {
			fail(fmt.Sprintf("query-parsed p=%d", p), d+"\n  statement: "+sql)
		}

		// Aggregate statement vs the hand-built distributed plan. Both
		// sort on the unique group key, so row order is total and the
		// comparison is exact (partition layout after a governed sort is
		// the sorter's business — rows are compared in order).
		if key == "" {
			continue
		}
		aggPlan, err := compileFor(w, aggSQL)
		if err != nil {
			fail(fmt.Sprintf("query-agg-compile p=%d", p), err.Error())
			continue
		}
		pre, _, err := engine.ScanStage(ctx, local, st, []engine.OpDesc{engine.Project(key)})
		if err != nil {
			fail(fmt.Sprintf("query-agg-scan p=%d", p), err.Error())
			continue
		}
		agg, _, _, err := engine.DistributedAggregate(ctx, local, pre, []string{key},
			[]engine.AggSpec{{Fn: engine.AggCount, As: "n"}}, engine.PlanConfig{})
		if err != nil {
			fail(fmt.Sprintf("query-agg-hand p=%d", p), err.Error())
			continue
		}
		sorted, err := engine.SortRelation(agg, key)
		if err != nil {
			fail(fmt.Sprintf("query-agg-sort p=%d", p), err.Error())
			continue
		}
		ares, err := query.Run(ctx, local, storeSources{st}, aggPlan, engine.PlanConfig{})
		if err != nil {
			fail(fmt.Sprintf("query-agg-parsed p=%d", p), err.Error())
			continue
		}
		if d := diffRowsInOrder(sorted, ares.Rel); d != "" {
			fail(fmt.Sprintf("query-agg p=%d", p), d+"\n  statement: "+aggSQL)
		}
	}
	return fails
}

// checkQueryPaged runs the statement checkQuery derives, hand-built and
// parsed, over multi-page segments (checkPaged), locally and on the
// TCP cluster.
func (e *Env) checkQueryPaged(ctx context.Context, w *Workload, dir string) []string {
	sql, ops := genQuery(w)
	plan, err := compileFor(w, sql)
	if err != nil {
		return []string{Report(w, "query-paged-compile", err.Error())}
	}
	fails, _ := e.checkPaged(ctx, w, dir, "query", ops, segstore.Options{Compress: true, Encodings: true}, false,
		map[string]pagedRun{"hand": stageRun(ops), "parsed": statementRun(plan)})
	return fails
}

// diffRowsInOrder compares two relations row by row in partition-major
// order, ignoring partition boundaries (both subjects are sorted on the
// same unique key, so order is total).
func diffRowsInOrder(want, got *relation.Relation) string {
	wr, gr := want.Rows(), got.Rows()
	if len(wr) != len(gr) {
		return fmt.Sprintf("row count mismatch: want %d, got %d", len(wr), len(gr))
	}
	for i := range wr {
		if !wr[i].Equal(gr[i]) {
			return fmt.Sprintf("row %d:\n  want %s\n  got  %s", i, fmtRow(wr[i]), fmtRow(gr[i]))
		}
	}
	return ""
}

// TestQueryDifferential drives the query-frontend invariants, and the
// footer-answered aggregate invariants (checkQueryAgg), over the seeded
// workload population (the `make difftest FAMILY=query` CI job). Replay
// one failure with -difftest.seed=<seed> -difftest.query.
func TestQueryDifferential(t *testing.T) {
	armBudget(t)
	ctx := context.Background()
	local := engine.NewLocal(4)
	env, err := NewEnv(ctx)
	if err != nil {
		t.Fatalf("start cluster env: %v", err)
	}
	defer env.Close()

	var seeds []int64
	if *flagSeed != 0 {
		seeds = []int64{*flagSeed}
	} else {
		for i := int64(0); i < int64(*flagN); i++ {
			seeds = append(seeds, *flagBase+i)
		}
	}
	failures, answered := 0, 0
	for _, seed := range seeds {
		w := Generate(seed)
		if *flagQuery {
			sql, _ := genQuery(w)
			t.Logf("seed %d statement: %s", seed, sql)
		}
		fails := checkQuery(ctx, local, w, t.TempDir())
		aggFails, n := env.checkQueryAgg(ctx, w, t.TempDir())
		answered += n
		fails = append(fails, env.checkQueryPaged(ctx, w, t.TempDir())...)
		for _, rep := range append(fails, aggFails...) {
			t.Errorf("\n%s", rep)
			failures++
		}
		if failures >= 3 {
			t.Fatalf("stopping after %d mismatches", failures)
		}
	}
	// Flavors are drawn per key, so a handful of seeds always seal some
	// answerable segment; none answered means the footer path is off.
	if len(seeds) >= 10 && answered == 0 {
		t.Fatalf("no segment was answered from its footer across %d workloads", len(seeds))
	}
}

// TestQueryDifferentialCatchesTightenedZone demonstrates detection
// power for footer answers: zone maps whose float minimum is tightened
// (injected via segstore.DebugZoneMutate) make answered segments report
// a wrong min, and the aggregate invariant must catch it with a
// replayable report.
func TestQueryDifferentialCatchesTightenedZone(t *testing.T) {
	segstore.DebugZoneMutate = func(_ string, _, _ int, z *segstore.ZoneMap) {
		if z.FHas && z.FMin < z.FMax {
			z.FMin = (z.FMin + z.FMax) / 2
		}
	}
	defer func() { segstore.DebugZoneMutate = nil }()
	ctx := context.Background()
	env, err := NewEnv(ctx)
	if err != nil {
		t.Fatalf("start cluster env: %v", err)
	}
	defer env.Close()

	for seed := int64(1); seed <= 200; seed++ {
		w := Generate(seed)
		fails, _ := env.checkQueryAgg(ctx, w, t.TempDir())
		if len(fails) == 0 {
			continue
		}
		for _, token := range []string{"seed:", "-difftest.seed=", "query-agg"} {
			if !strings.Contains(fails[0], token) {
				t.Fatalf("report missing %q:\n%s", token, fails[0])
			}
		}
		t.Logf("tightened zone minimum caught at seed %d:\n%s", seed, fails[0])
		return
	}
	t.Fatal("tightened zone minimums never changed an answered aggregate across 200 seeded workloads")
}

// TestQueryDifferentialCatchesPrecedenceBug demonstrates detection
// power: a frontend that parses `A || B && C` as `(A || B) && C`
// (injected via query.DebugMutateWhere) must break bitwise equality
// against the oracle running the correctly parsed predicate, with a
// replayable report. This is exactly the class of bug a hand-rolled
// statement parser invites, and the one the shared expr grammar is
// supposed to rule out.
func TestQueryDifferentialCatchesPrecedenceBug(t *testing.T) {
	query.DebugMutateWhere = func(where string) string {
		// Reassociate the first || to bind looser-than-&& on its right:
		// A || B && C  ->  (A || B) && C.
		i := strings.Index(where, " || ")
		j := strings.LastIndex(where, " && ")
		if i < 0 || j < i {
			return where
		}
		return "(" + where[:j] + ")" + where[j:]
	}
	defer func() { query.DebugMutateWhere = nil }()
	ctx := context.Background()
	local := engine.NewLocal(2)

	caught := false
	for seed := int64(1); seed <= 500 && !caught; seed++ {
		w := Generate(seed)
		if len(w.Rows) == 0 {
			continue
		}
		rng := rand.New(rand.NewSource(w.Seed ^ 0x51ec))
		pred := queryAtom(w, rng) + " || " + queryAtom(w, rng) + " && " + queryAtom(w, rng)
		sql := "SELECT * FROM trace WHERE " + pred
		plan, err := compileFor(w, sql)
		if err != nil {
			continue // mutated predicate failed to compile; try the next seed
		}
		st, err := buildScanStore(t.TempDir(), w, 2)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		full, err := st.Scan(ctx, engine.Pushdown{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ref, err := oracle.RunStage(full, []engine.OpDesc{engine.Filter(pred)})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got, err := query.Run(ctx, local, storeSources{st}, plan, engine.PlanConfig{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		d := DiffExact(ref, got.Rel)
		if d == "" {
			continue
		}
		caught = true
		rep := Report(w, "injected-precedence", d)
		for _, token := range []string{"seed:", "-difftest.seed="} {
			if !strings.Contains(rep, token) {
				t.Fatalf("report missing %q:\n%s", token, rep)
			}
		}
		t.Logf("wrong-precedence parse caught at seed %d (%s):\n%s", seed, pred, rep)
	}
	if !caught {
		t.Fatal("wrong-precedence WHERE parses never changed a result across 500 seeded workloads")
	}
}

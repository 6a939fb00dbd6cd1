package engine

import (
	"context"
	"fmt"
	"testing"
	"testing/quick"

	"ivnt/internal/relation"
	"ivnt/internal/rules"
)

var ctx = context.Background()

func traceSchema() relation.Schema {
	return relation.NewSchema(
		relation.Column{Name: "t", Kind: relation.KindFloat},
		relation.Column{Name: "bid", Kind: relation.KindString},
		relation.Column{Name: "mid", Kind: relation.KindInt},
		relation.Column{Name: "l", Kind: relation.KindBytes},
	)
}

// makeTrace builds n rows alternating two message types on channel FC,
// with payload [i%7, i%3].
func makeTrace(n, parts int) *relation.Relation {
	rows := make([]relation.Row, n)
	for i := range rows {
		rows[i] = relation.Row{
			relation.Float(float64(i) * 0.1),
			relation.Str("FC"),
			relation.Int(int64(3 + i%2)),
			relation.Bytes([]byte{byte(i % 7), byte(i % 3)}),
		}
	}
	return relation.FromRows(traceSchema(), rows).Repartition(parts)
}

func rulesTable() *relation.Relation {
	s := relation.NewSchema(
		relation.Column{Name: "sid", Kind: relation.KindString},
		relation.Column{Name: "rbid", Kind: relation.KindString},
		relation.Column{Name: "rmid", Kind: relation.KindInt},
		relation.Column{Name: "rule", Kind: relation.KindString},
	)
	return relation.FromRows(s, []relation.Row{
		{relation.Str("wpos"), relation.Str("FC"), relation.Int(3), relation.Str("0.5 * byteat(l, 0)")},
		{relation.Str("wvel"), relation.Str("FC"), relation.Int(3), relation.Str("byteat(l, 1)")},
		{relation.Str("heat"), relation.Str("FC"), relation.Int(4), relation.Str("byteat(l, 0) + 2")},
	})
}

// translations interpret makeTrace's messages: two signals on mid 3,
// one on mid 4.
func translations() []rules.Translation {
	return []rules.Translation{
		{SID: "wpos", Channel: "FC", MsgID: 3, FirstByte: 0, LastByte: 1, Rule: "0.5 * byteat(lrel, 0)"},
		{SID: "wvel", Channel: "FC", MsgID: 3, FirstByte: 0, LastByte: 1, Rule: "byteat(lrel, 1)"},
		{SID: "heat", Channel: "FC", MsgID: 4, FirstByte: 0, LastByte: 1, Rule: "byteat(lrel, 0) + 2"},
	}
}

func TestFilterStage(t *testing.T) {
	for _, workers := range []int{1, 4} {
		exec := NewLocal(workers)
		ds := NewDataset(exec, makeTrace(100, 5)).Filter("mid == 3")
		rel, err := ds.Collect(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if rel.NumRows() != 50 {
			t.Fatalf("workers=%d: filtered rows = %d, want 50", workers, rel.NumRows())
		}
		midIdx := rel.Schema.MustIndex("mid")
		for _, r := range rel.Rows() {
			if r[midIdx].AsInt() != 3 {
				t.Fatalf("row passed filter wrongly: %v", r)
			}
		}
	}
}

func TestProjectAndWithColumn(t *testing.T) {
	exec := NewLocal(2)
	ds := NewDataset(exec, makeTrace(10, 2)).
		WithColumn("b0", relation.KindInt, "byteat(l, 0)").
		Select("t", "b0")
	rel, err := ds.Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Schema.Len() != 2 || rel.Schema.Cols[1].Name != "b0" {
		t.Fatalf("schema = %s", rel.Schema)
	}
	rows := rel.Rows()
	if rows[3][1].AsInt() != 3 {
		t.Fatalf("b0[3] = %v", rows[3][1])
	}
}

func TestBroadcastJoinInterpretation(t *testing.T) {
	// The core of Sec. 3.2: match raw messages with translation tuples
	// on (bid, mid), then evaluate each tuple's rule to interpret values.
	exec := NewLocal(4)
	in := makeTrace(20, 3)
	rel, err := NewDataset(exec, in).Interpret(translations()).Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// mid=3 rows (10 of them) match 2 rules each; mid=4 rows match 1.
	if rel.NumRows() != 10*2+10*1 {
		t.Fatalf("joined rows = %d, want 30", rel.NumRows())
	}
	sidIdx := rel.Schema.MustIndex("sid")
	vIdx := rel.Schema.MustIndex("v")
	payload := map[float64][]byte{}
	for _, r := range in.Rows() {
		payload[r[0].F] = r[3].B
	}
	for _, r := range rel.Rows() {
		l := payload[r[0].F]
		b0, b1 := float64(l[0]), float64(l[1])
		var want float64
		switch r[sidIdx].AsString() {
		case "wpos":
			want = 0.5 * b0
		case "wvel":
			want = b1
		case "heat":
			want = b0 + 2
		}
		if r[vIdx].AsFloat() != want {
			t.Fatalf("interpreted %s = %v, want %v (row %v)", r[sidIdx], r[vIdx], want, r)
		}
	}
}

func TestDedupConsecutive(t *testing.T) {
	s := relation.NewSchema(
		relation.Column{Name: "t", Kind: relation.KindFloat},
		relation.Column{Name: "v", Kind: relation.KindInt},
	)
	rows := []relation.Row{
		{relation.Float(0), relation.Int(1)},
		{relation.Float(1), relation.Int(1)},
		{relation.Float(2), relation.Int(1)},
		{relation.Float(3), relation.Int(2)},
		{relation.Float(4), relation.Int(2)},
		{relation.Float(5), relation.Int(1)},
	}
	rel := relation.FromRows(s, rows)
	out, err := NewDataset(NewLocal(1), rel).DedupRuns("v").Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got := out.Rows()
	if len(got) != 3 {
		t.Fatalf("dedup rows = %d, want 3: %v", len(got), got)
	}
	wantT := []float64{0, 3, 5}
	for i, r := range got {
		if r[0].AsFloat() != wantT[i] {
			t.Fatalf("kept row %d at t=%v, want %v", i, r[0], wantT[i])
		}
	}
}

func TestWindowFilterCycleViolation(t *testing.T) {
	s := relation.NewSchema(relation.Column{Name: "t", Kind: relation.KindFloat})
	rows := []relation.Row{
		{relation.Float(0.0)}, {relation.Float(0.1)}, {relation.Float(0.5)}, {relation.Float(0.6)},
	}
	rel := relation.FromRows(s, rows)
	out, err := NewDataset(NewLocal(1), rel).Filter("gap(t) > 0.15").Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 1 || out.Rows()[0][0].AsFloat() != 0.5 {
		t.Fatalf("violations = %v", out.Rows())
	}
}

func TestSortWithinAndGlobal(t *testing.T) {
	s := relation.NewSchema(relation.Column{Name: "t", Kind: relation.KindFloat})
	rel := &relation.Relation{Schema: s, Partitions: [][]relation.Row{
		{{relation.Float(3)}, {relation.Float(1)}},
		{{relation.Float(2)}, {relation.Float(0)}},
	}}
	out, err := NewDataset(NewLocal(2), rel).SortWithinPartitions("t").Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if out.Partitions[0][0][0].AsFloat() != 1 || out.Partitions[1][0][0].AsFloat() != 0 {
		t.Fatalf("per-partition sort wrong: %v", out.Partitions)
	}
	ds, err := NewDataset(NewLocal(2), rel).SortGlobal(ctx, "t")
	if err != nil {
		t.Fatal(err)
	}
	g, err := ds.Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range g.Rows() {
		if r[0].AsFloat() != float64(i) {
			t.Fatalf("global sort wrong at %d: %v", i, r)
		}
	}
}

func TestSplitBy(t *testing.T) {
	exec := NewLocal(2)
	ds := NewDataset(exec, makeTrace(20, 3)).
		JoinBroadcast(rulesTable(), []string{"bid", "mid"}, []string{"rbid", "rmid"})
	groups, err := ds.SplitBy(ctx, "sid")
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 3 {
		t.Fatalf("groups = %d, want 3", len(groups))
	}
	total := 0
	for _, g := range groups {
		total += g.Rel.NumRows()
		sidIdx := g.Rel.Schema.MustIndex("sid")
		for _, r := range g.Rel.Rows() {
			if !r[sidIdx].Equal(g.Key) {
				t.Fatalf("group %v contains row of %v", g.Key, r[sidIdx])
			}
		}
	}
	if total != 30 {
		t.Fatalf("split lost rows: %d", total)
	}
}

func TestUnionAndCount(t *testing.T) {
	exec := NewLocal(1)
	a := NewDataset(exec, makeTrace(10, 2)).Filter("mid == 3")
	b := NewDataset(exec, makeTrace(10, 2)).Filter("mid == 4")
	u, err := a.Union(ctx, b)
	if err != nil {
		t.Fatal(err)
	}
	n, err := u.Count(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("union count = %d, want 10", n)
	}
}

func TestBuilderErrorSticks(t *testing.T) {
	exec := NewLocal(1)
	ds := NewDataset(exec, makeTrace(5, 1)).Filter("nosuchcol > 0").Select("t")
	if ds.Err() == nil {
		t.Fatal("expected recorded error")
	}
	if _, err := ds.Collect(ctx); err == nil {
		t.Fatal("Collect must surface builder error")
	}
	if _, err := ds.Schema(); err == nil {
		t.Fatal("Schema must surface builder error")
	}
}

func TestSchemaValidationErrors(t *testing.T) {
	exec := NewLocal(1)
	base := NewDataset(exec, makeTrace(5, 1))
	cases := []*Dataset{
		base.Select("missing"),
		base.WithColumn("t", relation.KindFloat, "1"), // duplicate column
		base.WithColumn("x", relation.KindFloat, "bad ("),
		base.JoinBroadcast(rulesTable(), []string{"bid"}, []string{"rbid", "rmid"}),
		base.JoinBroadcast(rulesTable(), []string{"nope"}, []string{"rbid"}),
		base.DedupRuns("missing"),
	}
	for i, ds := range cases {
		if ds.Err() == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestLocalMatchesSingleWorkerProperty(t *testing.T) {
	// Property: results are independent of worker count and partition
	// count (determinism requirement of the paper).
	f := func(nRows uint8, parts uint8, workers uint8) bool {
		n := int(nRows)%200 + 1
		p := int(parts)%8 + 1
		w := int(workers)%8 + 1
		rel := makeTrace(n, p)
		ops := func(d *Dataset) *Dataset {
			return d.Filter("mid == 3").WithColumn("b0", relation.KindInt, "byteat(l, 0)")
		}
		a, err1 := ops(NewDataset(NewLocal(1), makeTrace(n, 1))).Collect(ctx)
		b, err2 := ops(NewDataset(NewLocal(w), rel)).Collect(ctx)
		if err1 != nil || err2 != nil {
			return false
		}
		ar, br := a.Rows(), b.Rows()
		if len(ar) != len(br) {
			return false
		}
		for i := range ar {
			if !ar[i].Equal(br[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestAggregate(t *testing.T) {
	s := relation.NewSchema(
		relation.Column{Name: "sid", Kind: relation.KindString},
		relation.Column{Name: "v", Kind: relation.KindFloat},
	)
	rows := []relation.Row{
		{relation.Str("a"), relation.Float(1)},
		{relation.Str("a"), relation.Float(3)},
		{relation.Str("b"), relation.Float(10)},
		{relation.Str("a"), relation.Null()},
	}
	rel := relation.FromRows(s, rows)
	out, err := Aggregate(rel, []string{"sid"}, []AggSpec{
		{Fn: AggCount, As: "n"},
		{Fn: AggSum, Col: "v", As: "sum"},
		{Fn: AggMean, Col: "v", As: "mean"},
		{Fn: AggMin, Col: "v", As: "min"},
		{Fn: AggMax, Col: "v", As: "max"},
		{Fn: AggFirst, Col: "v", As: "first"},
		{Fn: AggLast, Col: "v", As: "last"},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := out.Rows()
	if len(got) != 2 {
		t.Fatalf("groups = %d", len(got))
	}
	// Ordered by key: a then b.
	a := got[0]
	if a[0].AsString() != "a" || a[1].AsInt() != 3 || a[2].AsFloat() != 4 ||
		a[3].AsFloat() != 2 || a[4].AsFloat() != 1 || a[5].AsFloat() != 3 ||
		a[6].AsFloat() != 1 || a[7].AsFloat() != 3 {
		t.Fatalf("group a = %v", a)
	}
	b := got[1]
	if b[0].AsString() != "b" || b[1].AsInt() != 1 || b[2].AsFloat() != 10 {
		t.Fatalf("group b = %v", b)
	}
}

func TestAggregateErrors(t *testing.T) {
	rel := makeTrace(5, 1)
	if _, err := Aggregate(rel, []string{"nope"}, nil); err == nil {
		t.Fatal("missing group column must fail")
	}
	if _, err := Aggregate(rel, []string{"bid"}, []AggSpec{{Fn: AggSum, Col: "nope", As: "x"}}); err == nil {
		t.Fatal("missing agg column must fail")
	}
}

func TestInterpretBadRuleFails(t *testing.T) {
	bad := []rules.Translation{{SID: "x", Channel: "FC", MsgID: 3, FirstByte: 0, LastByte: 0, Rule: "lrel +"}}
	if _, err := NewDataset(NewLocal(1), makeTrace(4, 1)).Interpret(bad).Collect(ctx); err == nil {
		t.Fatal("malformed rule must fail the stage")
	}
	// A bad rule no message reaches compiles lazily and never fails.
	bad[0].MsgID = 99
	if _, err := NewDataset(NewLocal(1), makeTrace(4, 1)).Interpret(bad).Collect(ctx); err != nil {
		t.Fatalf("unreached bad rule failed the stage: %v", err)
	}
}

func TestOpKindStrings(t *testing.T) {
	for k := OpFilter; k <= OpSortWithin; k++ {
		if k.String() == "" || k.String() == fmt.Sprintf("op(%d)", uint8(k)) {
			t.Errorf("missing name for op kind %d", uint8(k))
		}
	}
}

func TestStatsAccumulation(t *testing.T) {
	exec := NewLocal(2)
	ds := NewDataset(exec, makeTrace(100, 4)).Filter("mid == 3")
	out, err := ds.materialize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	st := out.Stats()
	if st.RowsIn != 100 || st.RowsOut != 50 || st.Partitions != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEmptyRelationThroughStage(t *testing.T) {
	exec := NewLocal(2)
	empty := relation.FromRows(traceSchema(), nil)
	out, st, err := exec.RunStage(ctx, empty, []OpDesc{Filter("mid == 3")})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 0 || st.RowsIn != 0 {
		t.Fatalf("rows = %d, stats = %+v", out.NumRows(), st)
	}
}

func TestBroadcastJoinEmptyTable(t *testing.T) {
	empty := relation.New(relation.NewSchema(
		relation.Column{Name: "rbid", Kind: relation.KindString},
		relation.Column{Name: "rmid", Kind: relation.KindInt},
	))
	out, err := NewDataset(NewLocal(1), makeTrace(10, 2)).
		JoinBroadcast(empty, []string{"bid", "mid"}, []string{"rbid", "rmid"}).
		Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 0 {
		t.Fatalf("inner join with empty table must drop everything: %d rows", out.NumRows())
	}
}

func TestInterpretEmptyRuleYieldsNull(t *testing.T) {
	empty := []rules.Translation{{SID: "x", Channel: "FC", MsgID: 3, FirstByte: 0, LastByte: 0}}
	out, err := NewDataset(NewLocal(1), makeTrace(2, 1)).Interpret(empty).Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 1 || !out.Rows()[0][2].IsNull() {
		t.Fatalf("empty rule must yield null, got %v", out.Rows())
	}
}

func TestDedupConsecutiveRespectsPartitionBoundaries(t *testing.T) {
	// Run dedup is partition-local: a run spanning a partition boundary
	// keeps one row per partition. This documents the semantics relied
	// on by reduce (which always dedups single-partition sequences).
	s := relation.NewSchema(relation.Column{Name: "v", Kind: relation.KindInt})
	rel := &relation.Relation{Schema: s, Partitions: [][]relation.Row{
		{{relation.Int(1)}, {relation.Int(1)}},
		{{relation.Int(1)}, {relation.Int(2)}},
	}}
	out, err := NewDataset(NewLocal(2), rel).DedupRuns("v").Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 3 {
		t.Fatalf("rows = %d, want 3 (1 per partition run + change)", out.NumRows())
	}
}

func TestShuffleThenCount(t *testing.T) {
	ds, err := NewDataset(NewLocal(2), makeTrace(60, 3)).Shuffle(ctx, 4, "mid")
	if err != nil {
		t.Fatal(err)
	}
	n, err := ds.Count(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n != 60 {
		t.Fatalf("count = %d", n)
	}
	if _, err := NewDataset(NewLocal(2), makeTrace(5, 1)).Shuffle(ctx, 2, "missing"); err == nil {
		t.Fatal("shuffle on missing column must fail")
	}
}

func TestRepartitionDataset(t *testing.T) {
	ds, err := NewDataset(NewLocal(2), makeTrace(40, 2)).Filter("mid == 3").Repartition(ctx, 8)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := ds.Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumPartitions() != 8 || rel.NumRows() != 20 {
		t.Fatalf("partitions = %d, rows = %d", rel.NumPartitions(), rel.NumRows())
	}
}

func TestColumnFloats(t *testing.T) {
	s := relation.NewSchema(relation.Column{Name: "v", Kind: relation.KindFloat})
	rel := relation.FromRows(s, []relation.Row{
		{relation.Float(1)}, {relation.Null()}, {relation.Float(3)},
	})
	vals, err := ColumnFloats(rel, "v")
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 || vals[0] != 1 || vals[1] != 3 {
		t.Fatalf("vals = %v", vals)
	}
	if _, err := ColumnFloats(rel, "missing"); err == nil {
		t.Fatal("missing column must fail")
	}
}

func TestAggFuncStrings(t *testing.T) {
	for f := AggCount; f <= AggLast; f++ {
		if f.String() == "" {
			t.Errorf("missing name for agg func %d", uint8(f))
		}
	}
}

func TestAggregateDistributedMatchesLocal(t *testing.T) {
	s := relation.NewSchema(
		relation.Column{Name: "sid", Kind: relation.KindString},
		relation.Column{Name: "v", Kind: relation.KindFloat},
	)
	rows := make([]relation.Row, 300)
	for i := range rows {
		v := relation.Float(float64(i % 17))
		if i%23 == 0 {
			v = relation.Null()
		}
		rows[i] = relation.Row{relation.Str([]string{"a", "b", "c"}[i%3]), v}
	}
	rel := relation.FromRows(s, rows).Repartition(7)
	aggs := []AggSpec{
		{Fn: AggCount, As: "n"},
		{Fn: AggSum, Col: "v", As: "sum"},
		{Fn: AggMean, Col: "v", As: "mean"},
		{Fn: AggMin, Col: "v", As: "min"},
		{Fn: AggMax, Col: "v", As: "max"},
	}
	want, err := Aggregate(rel, []string{"sid"}, aggs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := AggregateDistributed(ctx, NewLocal(4), rel, []string{"sid"}, aggs)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != want.NumRows() {
		t.Fatalf("groups: %d vs %d", got.NumRows(), want.NumRows())
	}
	gw, ww := got.Rows(), want.Rows()
	for i := range gw {
		for j := range gw[i] {
			if !gw[i][j].Equal(ww[i][j]) {
				t.Fatalf("group %d col %d: distributed %v vs local %v (%s)",
					i, j, gw[i][j], ww[i][j], got.Schema.Cols[j].Name)
			}
		}
	}
}

func TestAggregateDistributedRejectsOrderDependent(t *testing.T) {
	rel := makeTrace(10, 2)
	_, err := AggregateDistributed(ctx, NewLocal(1), rel, []string{"bid"},
		[]AggSpec{{Fn: AggFirst, Col: "t", As: "f"}})
	if err == nil {
		t.Fatal("AggFirst must be rejected in distributed aggregation")
	}
	if _, err := AggregateDistributed(ctx, NewLocal(1), rel, nil,
		[]AggSpec{{Fn: AggCount, As: "n"}}); err == nil {
		t.Fatal("empty group-by must be rejected")
	}
}

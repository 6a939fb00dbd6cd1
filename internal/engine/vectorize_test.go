package engine

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ivnt/internal/relation"
)

// vecTestRows builds a partition with value variety (nulls, runs,
// duplicate join keys, rule text) sized to cross batch boundaries.
func vecTestRows(n int) []relation.Row {
	rng := rand.New(rand.NewSource(7))
	rows := make([]relation.Row, n)
	for i := range rows {
		var v relation.Value
		switch rng.Intn(4) {
		case 0:
			v = relation.Null()
		default:
			v = relation.Float(rng.NormFloat64() * 10)
		}
		rows[i] = relation.Row{
			relation.Float(float64(i) * 0.01),
			relation.Str("FC"),
			relation.Int(int64(i % 5)),
			relation.Bytes([]byte{byte(i % 7), byte(i % 3), byte(rng.Intn(256))}),
			v,
		}
	}
	return rows
}

func vecTestSchema() relation.Schema {
	return relation.NewSchema(
		relation.Column{Name: "t", Kind: relation.KindFloat},
		relation.Column{Name: "bid", Kind: relation.KindString},
		relation.Column{Name: "mid", Kind: relation.KindInt},
		relation.Column{Name: "l", Kind: relation.KindBytes},
		relation.Column{Name: "v", Kind: relation.KindFloat},
	)
}

func vecJoinTable() *relation.Relation {
	s := relation.NewSchema(
		relation.Column{Name: "rmid", Kind: relation.KindInt},
		relation.Column{Name: "sid", Kind: relation.KindString},
		relation.Column{Name: "rule", Kind: relation.KindString},
	)
	// mid 3 maps to two signals: a duplicate-key (uniform) bucket.
	return relation.FromRows(s, []relation.Row{
		{relation.Int(0), relation.Str("wpos"), relation.Str("0.5 * byteat(l, 0)")},
		{relation.Int(1), relation.Str("wvel"), relation.Str("byteat(l, 1) - 1")},
		{relation.Int(3), relation.Str("heat"), relation.Str("byteat(l, 0) + 2")},
		{relation.Int(3), relation.Str("cool"), relation.Str("coalesce(v, 0.0) * 2")},
	})
}

// vecPipelines is the coverage matrix: fused runs in every shape,
// window programs that must not fuse, joins with duplicate-key
// buckets, dynamic rules, and the pass-through operators.
func vecPipelines() map[string][]OpDesc {
	return map[string][]OpDesc{
		"filter-only":       {Filter("mid != 2")},
		"filter-chain":      {Filter("mid != 2"), Filter("byteat(l, 0) < 5")},
		"project-only":      {Project("mid", "t")},
		"addcolumn-only":    {AddColumn("b0", relation.KindInt, "byteat(l, 0)")},
		"fused-f-p-a":       {Filter("mid != 2"), Project("t", "mid", "l", "v"), AddColumn("b0", relation.KindInt, "byteat(l, 0)")},
		"fused-a-f-p":       {AddColumn("b0", relation.KindInt, "byteat(l, 0)"), Filter("b0 > 1 && !isnull(v)"), Project("t", "b0", "v")},
		"fused-deep":        {AddColumn("x", relation.KindFloat, "coalesce(v, 0.0)"), AddColumn("y", relation.KindFloat, "x * x + 1"), Filter("y < 50"), Project("t", "y"), AddColumn("z", relation.KindFloat, "y / 2")},
		"window-filter":     {Filter("isnull(lag(v)) || gap(t) > 0.005")},
		"window-addcolumn":  {AddColumn("dv", relation.KindFloat, "delta(v)")},
		"window-mixed":      {Filter("mid != 2"), AddColumn("dt", relation.KindFloat, "gap(t)"), Filter("dt > 0.0"), Project("t", "mid", "dt")},
		"join":              {BroadcastJoin(vecJoinTable(), []string{"mid"}, []string{"rmid"})},
		"join-then-rule":    {BroadcastJoin(vecJoinTable(), []string{"mid"}, []string{"rmid"}), EvalRule("val", relation.KindFloat, "rule")},
		"rule-after-fused":  {Filter("mid == 3 || mid == 1"), BroadcastJoin(vecJoinTable(), []string{"mid"}, []string{"rmid"}), EvalRule("val", relation.KindFloat, "rule"), Filter("!isnull(val)"), Project("t", "sid", "val")},
		"dedup":             {Project("bid", "mid"), DedupConsecutive("mid")},
		"sort":              {SortWithin("mid", "t")},
		"sort-one-key":      {SortWithin("v")},
		"agg":               {PartialAgg([]string{"mid"}, []AggSpec{{Fn: AggCount, As: "n"}})},
		"kitchen-sink":      {Filter("mid != 4"), AddColumn("b0", relation.KindInt, "byteat(l, 0)"), BroadcastJoin(vecJoinTable(), []string{"mid"}, []string{"rmid"}), EvalRule("val", relation.KindFloat, "rule"), SortWithin("sid", "t"), DedupConsecutive("sid", "val"), Project("t", "sid", "val")},
		"empty-pipeline":    {},
		"addcolumn-strings": {AddColumn("tag", relation.KindString, "upper(bid) + '-' + str(mid)"), Filter("contains(tag, '3')")},
		"filter-none-pass":  {Filter("mid == 99")},
		"filter-all-pass":   {Filter("mid >= 0 || isnull(v)")},
	}
}

func rowsBitEqual(a, b []relation.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			x, y := a[i][j], b[i][j]
			if x.K != y.K || x.I != y.I || x.S != y.S ||
				math.Float64bits(x.F) != math.Float64bits(y.F) ||
				len(x.B) != len(y.B) {
				return false
			}
			for k := range x.B {
				if x.B[k] != y.B[k] {
					return false
				}
			}
		}
	}
	return true
}

// TestVecPlanShapes pins the planner's fusion decisions: window-free
// Filter/Project/AddColumn runs fuse, window programs and the
// remaining operators stay single segments.
func TestVecPlanShapes(t *testing.T) {
	sch := vecTestSchema()
	cases := []struct {
		name     string
		ops      []OpDesc
		segments int
		fused    []bool
	}{
		{"all-fused", []OpDesc{Filter("mid != 2"), Project("t", "mid", "l"), AddColumn("b0", relation.KindInt, "byteat(l, 0)")}, 1, []bool{true}},
		{"window-splits", []OpDesc{Filter("mid != 2"), AddColumn("dt", relation.KindFloat, "gap(t)"), Filter("dt > 0.0")}, 3, []bool{true, false, true}},
		{"join-splits", []OpDesc{Filter("mid != 2"), BroadcastJoin(vecJoinTable(), []string{"mid"}, []string{"rmid"}), Project("t", "sid")}, 3, []bool{true, false, true}},
		{"sort-alone", []OpDesc{SortWithin("t")}, 1, []bool{false}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pipe, err := NewStagePipeline(sch, tc.ops)
			if err != nil {
				t.Fatal(err)
			}
			if len(pipe.vec) != tc.segments {
				t.Fatalf("plan has %d segments, want %d", len(pipe.vec), tc.segments)
			}
			for i, seg := range pipe.vec {
				if (seg.fused != nil) != tc.fused[i] {
					t.Fatalf("segment %d fused=%v, want %v", i, seg.fused != nil, tc.fused[i])
				}
			}
		})
	}
}

// TestFusedRunMaterializesOnce checks the fused-output aliasing
// contract: a fused run with any Project/AddColumn builds fresh
// slab-backed rows (mutating input afterwards must not leak through),
// while a filters-only run passes input row references exactly like
// the oracle's filter does.
func TestFusedRunMaterializesOnce(t *testing.T) {
	sch := vecTestSchema()
	part := vecTestRows(100)

	pipe, err := NewStagePipeline(sch, []OpDesc{AddColumn("b0", relation.KindInt, "byteat(l, 0)")})
	if err != nil {
		t.Fatal(err)
	}
	out, err := pipe.Apply(part)
	if err != nil {
		t.Fatal(err)
	}
	if &out[0][0] == &part[0][0] {
		t.Fatal("materializing fused run aliases input rows")
	}

	filt, err := NewStagePipeline(sch, []OpDesc{Filter("mid >= 0")})
	if err != nil {
		t.Fatal(err)
	}
	out, err = filt.Apply(part)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(part) || &out[0][0] != &part[0][0] {
		t.Fatal("filters-only fused run should pass through input row references")
	}
}

// TestFusedCountersAdvance checks the telemetry satellite: a fused run
// bumps engine_vectorized_batches_total and the per-op fused-step
// counters for exactly its constituent kinds.
func TestFusedCountersAdvance(t *testing.T) {
	sch := vecTestSchema()
	pipe, err := NewStagePipeline(sch, []OpDesc{Filter("mid != 2"), Project("t", "mid"), SortWithin("t")})
	if err != nil {
		t.Fatal(err)
	}
	b0 := vectorizedBatchesCtr.Value()
	f0 := fusedStepsCtr[OpFilter].Value()
	p0 := fusedStepsCtr[OpProject].Value()
	s0 := fusedStepsCtr[OpSortWithin].Value()
	if _, err := pipe.Apply(vecTestRows(3 * batchSize)); err != nil {
		t.Fatal(err)
	}
	if got := vectorizedBatchesCtr.Value() - b0; got != 3 {
		t.Fatalf("vectorized batches delta = %d, want 3", got)
	}
	if fusedStepsCtr[OpFilter].Value() != f0+1 || fusedStepsCtr[OpProject].Value() != p0+1 {
		t.Fatal("fused-step counters for filter/project did not advance by one run")
	}
	if fusedStepsCtr[OpSortWithin].Value() != s0 {
		t.Fatal("sortwithin is not fusable and must not count as a fused step")
	}
}

// TestDebugMutateSelection proves the injection hook actually changes
// fused-run output — the property the difftest injected-bug test
// relies on.
func TestDebugMutateSelection(t *testing.T) {
	sch := vecTestSchema()
	pipe, err := NewStagePipeline(sch, []OpDesc{Filter("mid >= 0"), Project("t", "mid")})
	if err != nil {
		t.Fatal(err)
	}
	part := vecTestRows(10)
	DebugMutateSelection = func(sel []int32) []int32 {
		if len(sel) > 0 {
			return sel[:len(sel)-1]
		}
		return sel
	}
	defer func() { DebugMutateSelection = nil }()
	got, err := pipe.Apply(part)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(part)-1 {
		t.Fatalf("selection mutation dropped %d rows, want 1", len(part)-len(got))
	}
}

// TestStatsAddExhaustive walks Stats with reflection: setting any
// single field of the operand must show up in the sum, so a new
// counter added to the struct without an Add line fails here instead
// of silently dropping data.
func TestStatsAddExhaustive(t *testing.T) {
	typ := reflect.TypeOf(Stats{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		var o Stats
		ov := reflect.ValueOf(&o).Elem().Field(i)
		switch f.Type.Kind() {
		case reflect.Int, reflect.Int64:
			ov.SetInt(int64(i + 1))
		default:
			t.Fatalf("Stats field %s has unsupported kind %s; teach this test about it", f.Name, f.Type.Kind())
		}
		var sum Stats
		sum.Add(o)
		if got := reflect.ValueOf(sum).Field(i).Int(); got != int64(i+1) {
			t.Fatalf("Stats.Add drops field %s: sum has %d, want %d", f.Name, got, i+1)
		}
		// The other fields must stay untouched.
		sum.Add(o)
		for j := 0; j < typ.NumField(); j++ {
			want := int64(0)
			if j == i {
				want = 2 * int64(i+1)
			}
			if got := reflect.ValueOf(sum).Field(j).Int(); got != want {
				t.Fatalf("Stats.Add(%s) perturbs field %s: %d, want %d", f.Name, typ.Field(j).Name, got, want)
			}
		}
	}
}

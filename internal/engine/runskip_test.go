package engine

import (
	"testing"

	"ivnt/internal/relation"
	"ivnt/internal/telemetry"
)

// rleTestRows builds a partition shaped like a decoded low-cardinality
// trace: every column piecewise-constant in long runs, with a null run
// in v.
func rleTestRows(n int) []relation.Row {
	rows := make([]relation.Row, n)
	for i := range rows {
		v := relation.Float(float64((i / 96) % 3))
		if (i/48)%5 == 4 {
			v = relation.Null()
		}
		rows[i] = relation.Row{
			relation.Float(float64(i) * 0.01),
			relation.Str([]string{"drive", "park"}[(i/128)%2]),
			relation.Int(int64((i / 64) % 4)),
			relation.Bytes([]byte{byte((i / 32) % 8)}),
			v,
		}
	}
	return rows
}

// TestRunSkipMatchesEval: fused filters over RLE-shaped data must
// produce bitwise-identical output to the row-at-a-time reference —
// while actually skipping evaluations.
func TestRunSkipMatchesEval(t *testing.T) {
	sch := vecTestSchema()
	pipelines := map[string][]OpDesc{
		"filter-const-col":   {Filter("mid != 2")},
		"filter-chain":       {Filter("mid != 2"), Filter("bid == 'drive'")},
		"filter-null-runs":   {Filter("coalesce(v, 1.0) > 0.0")},
		"filter-then-addcol": {Filter("mid < 3"), AddColumn("b0", relation.KindInt, "byteat(l, 0)"), Project("t", "mid", "b0")},
	}
	for name, ops := range pipelines {
		t.Run(name, func(t *testing.T) {
			pipe, err := NewStagePipeline(sch, ops)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{0, 1, 200, batchSize + 100} {
				part := rleTestRows(n)
				want, err := pipe.ApplyRows(part)
				if err != nil {
					t.Fatal(err)
				}
				before := telemetry.Default().CounterValue("engine_runskip_rows_total")
				skipped, err := pipe.ApplyVectorized(part)
				if err != nil {
					t.Fatal(err)
				}
				delta := telemetry.Default().CounterValue("engine_runskip_rows_total") - before

				if !rowsBitEqual(skipped, want) {
					t.Fatalf("n=%d: run-skip output diverges (skip=%d want=%d rows)",
						n, len(skipped), len(want))
				}
				// Long runs mean the vast majority of rows reuse a verdict.
				if n >= 200 && delta < int64(n/2) {
					t.Fatalf("n=%d: only %d evaluations skipped", n, delta)
				}
				if n <= 1 && delta != 0 {
					t.Fatalf("n=%d: %d skips on a run-free partition", n, delta)
				}
			}
		})
	}
}

// TestRunSkipDisabledForScratchRefs: a filter reading a computed column
// must not run-skip — the scratch cells are not covered by the row
// comparison — and the planner encodes that as a nil skipCols.
func TestRunSkipDisabledForScratchRefs(t *testing.T) {
	sch := vecTestSchema()
	pipe, err := NewStagePipeline(sch, []OpDesc{
		AddColumn("b0", relation.KindInt, "byteat(l, 0)"),
		Filter("b0 < 4"),
	})
	if err != nil {
		t.Fatal(err)
	}
	var filters, skippable int
	for _, seg := range pipe.vec {
		if seg.fused == nil {
			continue
		}
		for _, st := range seg.fused.steps {
			if st.dst < 0 {
				filters++
				if st.skipCols != nil {
					skippable++
				}
			}
		}
	}
	if filters != 1 || skippable != 0 {
		t.Fatalf("filters=%d skippable=%d, want 1 filter with skipping disabled", filters, skippable)
	}

	before := telemetry.Default().CounterValue("engine_runskip_rows_total")
	part := rleTestRows(512)
	want, err := pipe.ApplyRows(part)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pipe.ApplyVectorized(part)
	if err != nil {
		t.Fatal(err)
	}
	if !rowsBitEqual(got, want) {
		t.Fatal("scratch-ref filter diverges from row path")
	}
	if d := telemetry.Default().CounterValue("engine_runskip_rows_total") - before; d != 0 {
		t.Fatalf("%d rows skipped through a scratch-referencing filter", d)
	}
}

// TestSkipColumnsPlan pins the planner side: an input-only filter gets
// exactly the columns it reads, a window filter never fuses at all (and
// so never reaches skipColumns with window code).
func TestSkipColumnsPlan(t *testing.T) {
	sch := vecTestSchema()
	pipe, err := NewStagePipeline(sch, []OpDesc{Filter("mid != 2 && bid == 'drive'")})
	if err != nil {
		t.Fatal(err)
	}
	if len(pipe.vec) != 1 || pipe.vec[0].fused == nil {
		t.Fatal("filter did not fuse")
	}
	got := pipe.vec[0].fused.steps[0].skipCols
	// Columns bid=1, mid=2 in schema order.
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("skipCols = %v, want [1 2]", got)
	}
}

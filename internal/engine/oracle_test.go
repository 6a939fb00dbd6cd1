package engine_test

import (
	"testing"

	"ivnt/internal/engine"
	"ivnt/internal/oracle"
	"ivnt/internal/relation"
	"ivnt/internal/telemetry"
)

// applyBoth runs ops over part on a compiled pipeline and on the oracle.
func applyBoth(t *testing.T, pipe *engine.StagePipeline, ops []engine.OpDesc, part []relation.Row) (got, want []relation.Row) {
	t.Helper()
	_, want, err := oracle.RunPipeline(pipe.InputSchema(), part, ops)
	if err != nil {
		t.Fatal(err)
	}
	got, err = pipe.Apply(part)
	if err != nil {
		t.Fatal(err)
	}
	return got, want
}

// TestVectorizedMatchesRows is the engine-local differential check:
// every pipeline shape must produce output bitwise-identical to the
// row-at-a-time oracle, on partitions that are empty, smaller than a
// batch and spanning several batches, with varied and with RLE-shaped
// (run-skipping) rows.
func TestVectorizedMatchesRows(t *testing.T) {
	sch := engine.VecTestSchema()
	gens := map[string]func(int) []relation.Row{"varied": engine.VecTestRows, "rle": engine.RLETestRows}
	for name, ops := range engine.VecPipelines() {
		t.Run(name, func(t *testing.T) {
			pipe, err := engine.NewStagePipeline(sch, ops)
			if err != nil {
				t.Fatal(err)
			}
			for gen, rows := range gens {
				for _, n := range []int{0, 1, 17, engine.BatchSize, engine.BatchSize + 1, 2*engine.BatchSize + 331} {
					got, want := applyBoth(t, pipe, ops, rows(n))
					if !engine.RowsBitEqual(got, want) {
						t.Fatalf("%s n=%d: pipeline output diverges from the oracle (%d vs %d rows)", gen, n, len(got), len(want))
					}
				}
			}
		})
	}
}

// TestRunSkipMatchesEval: fused filters over RLE-shaped data must
// produce output bitwise-identical to the oracle — while actually
// skipping evaluations.
func TestRunSkipMatchesEval(t *testing.T) {
	sch := engine.VecTestSchema()
	pipelines := map[string][]engine.OpDesc{
		"filter-const-col":   {engine.Filter("mid != 2")},
		"filter-chain":       {engine.Filter("mid != 2"), engine.Filter("bid == 'drive'")},
		"filter-null-runs":   {engine.Filter("coalesce(v, 1.0) > 0.0")},
		"filter-then-addcol": {engine.Filter("mid < 3"), engine.AddColumn("b0", relation.KindInt, "byteat(l, 0)"), engine.Project("t", "mid", "b0")},
	}
	for name, ops := range pipelines {
		t.Run(name, func(t *testing.T) {
			pipe, err := engine.NewStagePipeline(sch, ops)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{0, 1, 200, engine.BatchSize + 100} {
				part := engine.RLETestRows(n)
				before := telemetry.Default().CounterValue("engine_runskip_rows_total")
				got, want := applyBoth(t, pipe, ops, part)
				delta := telemetry.Default().CounterValue("engine_runskip_rows_total") - before

				if !engine.RowsBitEqual(got, want) {
					t.Fatalf("n=%d: run-skip output diverges (got=%d want=%d rows)", n, len(got), len(want))
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
	ops := []engine.OpDesc{
		engine.AddColumn("b0", relation.KindInt, "byteat(l, 0)"),
		engine.Filter("b0 < 4"),
	}
	pipe, err := engine.NewStagePipeline(engine.VecTestSchema(), ops)
	if err != nil {
		t.Fatal(err)
	}
	if filters, skippable := engine.FusedFilterSkips(pipe); filters != 1 || skippable != 0 {
		t.Fatalf("filters=%d skippable=%d, want 1 filter with skipping disabled", filters, skippable)
	}

	before := telemetry.Default().CounterValue("engine_runskip_rows_total")
	got, want := applyBoth(t, pipe, ops, engine.RLETestRows(512))
	if !engine.RowsBitEqual(got, want) {
		t.Fatal("scratch-ref filter diverges from the oracle")
	}
	if d := telemetry.Default().CounterValue("engine_runskip_rows_total") - before; d != 0 {
		t.Fatalf("%d rows skipped through a scratch-referencing filter", d)
	}
}

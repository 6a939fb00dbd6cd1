package difftest

import (
	"context"
	"flag"
	"strings"
	"testing"

	"ivnt/internal/engine"
	"ivnt/internal/oracle"
	"ivnt/internal/relation"
)

var (
	flagN    = flag.Int("difftest.n", 25, "number of seeded workloads to run")
	flagSeed = flag.Int64("difftest.seed", 0, "replay exactly one workload seed (0 = run difftest.n seeds)")
	flagBase = flag.Int64("difftest.base", 1, "first workload seed when difftest.seed is 0")
)

// TestDifferential is the main differential run: every seeded workload
// executes on the oracle, the local executor and a real TCP cluster,
// and is then pushed through the five metamorphic invariants. Any
// mismatch prints a seed + op-tree report; replay a failure with
// -difftest.seed=<seed>.
func TestDifferential(t *testing.T) {
	if *flagShuffle {
		t.Skip("-difftest.shuffle: running only the shuffle invariants (TestShuffleDifferential)")
	}
	if *flagScan {
		t.Skip("-difftest.scan: running only the segment-scan invariants (TestScanDifferential)")
	}
	armBudget(t) // -difftest.membudget forces the run under a governor budget

	ctx := context.Background()
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

	failures := 0
	for _, seed := range seeds {
		w := Generate(seed)
		t.Logf("seed %d: %d rows, %d ops, window=%v dedup=%v",
			seed, len(w.Rows), len(w.Ops), w.UsesWindow, w.HasDedup)
		for _, rep := range env.CheckWorkload(ctx, w) {
			t.Errorf("\n%s", rep)
			failures++
		}
		if failures >= 3 {
			t.Fatalf("stopping after %d mismatches", failures)
		}
	}
}

// TestGenerateDeterministic pins the replay contract: the same seed
// must regenerate the identical workload, otherwise printed seeds are
// useless for reproduction.
func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		a, b := Generate(seed), Generate(seed)
		if FormatOps(a.Ops) != FormatOps(b.Ops) {
			t.Fatalf("seed %d: op trees differ:\n%s\nvs\n%s", seed, FormatOps(a.Ops), FormatOps(b.Ops))
		}
		if d := DiffExact(a.rel(3), b.rel(3)); d != "" {
			t.Fatalf("seed %d: inputs differ:\n%s", seed, d)
		}
	}
}

// sameOn mirrors the engine's dedup column comparison.
func sameOn(a, b relation.Row, idx []int) bool {
	for _, ci := range idx {
		if !a[ci].Equal(b[ci]) {
			return false
		}
	}
	return true
}

// buggyDedup is DedupConsecutive with a deliberate off-by-one: it
// compares each row against the row *two* back instead of its
// immediate predecessor.
func buggyDedup(rows []relation.Row, idx []int) []relation.Row {
	var out []relation.Row
	for i, r := range rows {
		if i > 1 && sameOn(r, rows[i-2], idx) {
			continue
		}
		out = append(out, r)
	}
	return out
}

// runWithBuggyDedup replays a workload through the oracle but
// substitutes the broken dedup, simulating a wrong-answer engine bug.
func runWithBuggyDedup(w *Workload, nparts int) (*relation.Relation, error) {
	rel := w.rel(nparts)
	outParts := make([][]relation.Row, len(rel.Partitions))
	outSchema := rel.Schema
	for pi, part := range rel.Partitions {
		s := rel.Schema
		rows := part
		for _, op := range w.Ops {
			if op.Kind == engine.OpDedupConsecutive {
				idx := make([]int, len(op.Cols))
				for i, c := range op.Cols {
					idx[i] = s.Index(c)
				}
				rows = buggyDedup(rows, idx)
				continue
			}
			var err error
			s, rows, err = oracle.ApplyOp(s, rows, op)
			if err != nil {
				return nil, err
			}
		}
		outParts[pi] = rows
		outSchema = s
	}
	return &relation.Relation{Schema: outSchema, Partitions: outParts}, nil
}

// TestDifferentialCatchesInjectedDedupBug demonstrates the harness's
// detection power (acceptance criterion): an off-by-one injected into
// DedupConsecutive must be caught by the differ with a readable
// seed + op-tree report.
func TestDifferentialCatchesInjectedDedupBug(t *testing.T) {
	caught := false
	for seed := int64(1); seed <= 500 && !caught; seed++ {
		w := Generate(seed)
		if !w.HasDedup || len(w.Rows) == 0 {
			continue
		}
		ref, err := oracle.RunStage(w.rel(3), w.Ops)
		if err != nil {
			t.Fatalf("seed %d: oracle: %v", seed, err)
		}
		got, err := runWithBuggyDedup(w, 3)
		if err != nil {
			t.Fatalf("seed %d: buggy run: %v", seed, err)
		}
		d := DiffExact(ref, got)
		if d == "" {
			continue
		}
		caught = true
		rep := Report(w, "injected-dedup-bug", d)
		for _, want := range []string{"seed:", "-difftest.seed=", "dedupconsecutive", "partition"} {
			if !strings.Contains(rep, want) {
				t.Errorf("report missing %q:\n%s", want, rep)
			}
		}
		t.Logf("injected off-by-one caught at seed %d:\n%s", seed, rep)
	}
	if !caught {
		t.Fatalf("off-by-one dedup bug was never detected across 500 seeds")
	}
}

// TestDifferentialCatchesInjectedFusionBug demonstrates the harness
// guards the vectorized kernels themselves: a selection-vector bug
// injected through engine.DebugMutateSelection (each fused filter
// batch silently drops its last surviving row) must be caught by the
// oracle-vs-pipeline comparison with a readable seed + op-tree
// report. This is the acceptance criterion for the engine-path
// invariant added to CheckWorkload.
func TestDifferentialCatchesInjectedFusionBug(t *testing.T) {
	engine.DebugMutateSelection = func(sel []int32) []int32 {
		if len(sel) > 0 {
			return sel[:len(sel)-1]
		}
		return sel
	}
	defer func() { engine.DebugMutateSelection = nil }()

	caught := false
	for seed := int64(1); seed <= 500 && !caught; seed++ {
		w := Generate(seed)
		if len(w.Rows) == 0 {
			continue
		}
		pipe, err := engine.NewStagePipeline(w.Schema, w.Ops)
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		ref, err := oracle.RunStage(w.rel(3), w.Ops)
		if err != nil {
			t.Fatalf("seed %d: oracle: %v", seed, err)
		}
		got, err := applyStage(pipe, w.rel(3))
		if err != nil {
			t.Fatalf("seed %d: pipeline: %v", seed, err)
		}
		d := DiffExact(ref, got)
		if d == "" {
			continue
		}
		caught = true
		rep := Report(w, "injected-fusion-bug", d)
		for _, want := range []string{"seed:", "-difftest.seed=", "partition"} {
			if !strings.Contains(rep, want) {
				t.Errorf("report missing %q:\n%s", want, rep)
			}
		}
		t.Logf("injected selection-vector bug caught at seed %d:\n%s", seed, rep)
	}
	if !caught {
		t.Fatalf("selection-vector fusion bug was never detected across 500 seeds")
	}
}

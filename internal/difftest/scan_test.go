package difftest

import (
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"ivnt/internal/engine"
	"ivnt/internal/oracle"
	"ivnt/internal/relation"
	"ivnt/internal/segstore"
)

// -difftest.scan narrows a replay to the segment-scan invariants: with
// -difftest.seed=<seed> it skips the main differential run, so the
// failing scan check reproduces alone (and verbosely).
var flagScan = flag.Bool("difftest.scan", false,
	"replay only the segment-scan invariants (pair with -difftest.seed to reproduce a scan failure)")

// scanRootOps returns the workload's plan with a Filter at the root —
// the shape predicate pushdown folds into the scan. Plans already
// rooted in a Filter are used as-is; otherwise a deterministic
// `col op literal` predicate is synthesized from the workload's own
// cell values (so it is selective, not vacuous) and prepended. A
// prepended Filter never changes the schema, so the rest of the plan
// runs unmodified.
func scanRootOps(w *Workload) []engine.OpDesc {
	if len(w.Ops) > 0 && w.Ops[0].Kind == engine.OpFilter {
		return w.Ops
	}
	rng := rand.New(rand.NewSource(w.Seed ^ 0x5ca9))

	// Candidate literals: actual values of int/float/string columns.
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
	pred := "c0 >= 0" // empty input: any filter will do
	if len(cands) > 0 {
		c := cands[rng.Intn(len(cands))]
		op := []string{"<", "<=", ">", ">=", "=="}[rng.Intn(5)]
		pred = fmt.Sprintf("%s %s %s", c.col, op, c.lit)
	}
	return append([]engine.OpDesc{engine.Filter(pred)}, w.Ops...)
}

// buildScanStore seals the workload's rows into a fresh segment store
// as nparts contiguous segments (fewer when rows run out) — the
// persistent counterpart of w.rel(nparts).
func buildScanStore(dir string, w *Workload, nparts int) (*segstore.Store, error) {
	st, err := segstore.Open(dir, w.Schema, segstore.Options{Compress: w.Seed%2 == 0})
	if err != nil {
		return nil, err
	}
	n := len(w.Rows)
	per := (n + nparts - 1) / nparts
	for at := 0; at < n; at += per {
		end := at + per
		if end > n {
			end = n
		}
		rows := make([]relation.Row, end-at)
		for i, r := range w.Rows[at:end] {
			rows[i] = r.Clone()
		}
		if err := st.AppendSegment(rows); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// checkScan runs the segment-scan invariant family for one workload:
// seal the input as P segments, then hold three subjects bitwise-equal
// on the identical per-segment partitioning —
//
//	oracle(full scan)  ==  local(full scan + engine filter)  ==  ScanStage (pushdown)
//
// for P ∈ {1, 2, 7}, plus one ScanStage over the real TCP cluster
// (segment-scheduled: executors read the segment files themselves).
// Pruned segments surface as empty partitions, so bitwise equality
// proves zone-map pruning only ever skips segments the stage's own
// Filter would have emptied anyway.
func (e *Env) checkScan(ctx context.Context, w *Workload, dir string) []string {
	var fails []string
	fail := func(invariant, detail string) {
		fails = append(fails, Report(w, invariant, detail))
	}
	ops := scanRootOps(w)
	clusterP := []int{1, 2, 7}[uint64(w.Seed)%3]

	for _, p := range []int{1, 2, 7} {
		st, err := buildScanStore(filepath.Join(dir, fmt.Sprintf("p%d", p)), w, p)
		if err != nil {
			fail(fmt.Sprintf("scan-store p=%d", p), err.Error())
			continue
		}
		full, err := st.Scan(ctx, engine.Pushdown{})
		if err != nil {
			fail(fmt.Sprintf("scan-full p=%d", p), err.Error())
			continue
		}
		ref, err := oracle.RunStage(full, ops)
		if err != nil {
			fail(fmt.Sprintf("scan-oracle p=%d", p), err.Error())
			continue
		}
		lres, _, err := e.Local.RunStage(ctx, full, ops)
		if err != nil {
			fail(fmt.Sprintf("scan-local p=%d", p), err.Error())
		} else if d := DiffExact(ref, lres); d != "" {
			fail(fmt.Sprintf("scan-local p=%d", p), d)
		}
		sres, _, err := engine.ScanStage(ctx, e.Local, st, ops)
		if err != nil {
			fail(fmt.Sprintf("scan-pushdown p=%d", p), err.Error())
		} else if d := DiffExact(ref, sres); d != "" {
			fail(fmt.Sprintf("scan-pushdown p=%d", p), d)
		}
		if p != clusterP {
			continue
		}
		cres, _, err := engine.ScanStage(ctx, e.driver(), st, ops)
		if err != nil {
			fail(fmt.Sprintf("scan-cluster p=%d", p), err.Error())
		} else if d := DiffExact(ref, cres); d != "" {
			fail(fmt.Sprintf("scan-cluster p=%d", p), d)
		}
	}
	return fails
}

// TestScanDifferential drives the segment-scan invariants over the
// seeded workload population (the `make difftest FAMILY=scan` CI job). Replay
// one failure with -difftest.seed=<seed> -difftest.scan.
func TestScanDifferential(t *testing.T) {
	armBudget(t)
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
		if *flagScan {
			t.Logf("seed %d ops:\n%s", seed, FormatOps(scanRootOps(w)))
		}
		for _, rep := range env.checkScan(ctx, w, t.TempDir()) {
			t.Errorf("\n%s", rep)
			failures++
		}
		if failures >= 3 {
			t.Fatalf("stopping after %d mismatches", failures)
		}
	}
}

// TestScanDifferentialCatchesTightenedZone demonstrates detection
// power: zone maps corrupted to claim tighter bounds than the data
// (injected via segstore.DebugZoneMutate) make the scan falsely prune
// segments with matching rows, and the full-scan-vs-pushdown bitwise
// invariant must catch the missing rows with a replayable report.
// (Loosened bounds merely forfeit pruning — correct by the
// conservative contract — so tightening is the detectable direction.)
func TestScanDifferentialCatchesTightenedZone(t *testing.T) {
	segstore.DebugZoneMutate = func(_ string, z *segstore.ZoneMap) {
		if z.FHas {
			mid := (z.FMin + z.FMax) / 2
			z.FMin, z.FMax = mid, mid
		}
		if z.SHas {
			z.SMax = z.SMin
		}
	}
	defer func() { segstore.DebugZoneMutate = nil }()
	ctx := context.Background()
	local := engine.NewLocal(2)

	caught := false
	for seed := int64(1); seed <= 500 && !caught; seed++ {
		w := Generate(seed)
		if len(w.Rows) == 0 {
			continue
		}
		ops := scanRootOps(w)
		st, err := buildScanStore(t.TempDir(), w, 7)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		full, err := st.Scan(ctx, engine.Pushdown{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ref, _, err := local.RunStage(ctx, full, ops)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got, _, err := engine.ScanStage(ctx, local, st, ops)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		d := DiffExact(ref, got)
		if d == "" {
			continue
		}
		caught = true
		rep := Report(w, "injected-tight-zone", d)
		for _, token := range []string{"seed:", "-difftest.seed="} {
			if !strings.Contains(rep, token) {
				t.Fatalf("report missing %q:\n%s", token, rep)
			}
		}
		t.Logf("tightened zone map caught at seed %d:\n%s", seed, rep)
	}
	if !caught {
		t.Fatal("tightened zone maps never pruned a live segment across 500 seeded workloads")
	}
}

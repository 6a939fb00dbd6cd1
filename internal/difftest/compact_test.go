package difftest

import (
	"context"
	"flag"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"ivnt/internal/colcodec"
	"ivnt/internal/engine"
	"ivnt/internal/oracle"
	"ivnt/internal/relation"
	"ivnt/internal/segstore"
)

// -difftest.encoding narrows a replay to the encoding/compaction
// invariants: with -difftest.seed=<seed> it skips the main differential
// run, so the failing check reproduces alone (and verbosely).
var flagEncoding = flag.Bool("difftest.encoding", false,
	"replay only the encoding/compaction invariants (pair with -difftest.seed to reproduce a failure)")

// buildStoreWith seals the workload's rows into a fresh store as nparts
// contiguous segments under explicit codec options — buildScanStore
// with the encoding knobs exposed.
func buildStoreWith(dir string, w *Workload, nparts int, opts segstore.Options) (*segstore.Store, error) {
	st, err := segstore.Open(dir, w.Schema, opts)
	if err != nil {
		return nil, err
	}
	n := len(w.Rows)
	per := (n + nparts - 1) / nparts
	for at := 0; at < n; at += per {
		end := min(at+per, n)
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

// flatten concatenates a relation's partitions into one, for comparing
// stores whose physical partitioning legitimately differs (compaction
// merges segments but must preserve the row sequence).
func flatten(rel *relation.Relation) *relation.Relation {
	var all []relation.Row
	for _, p := range rel.Partitions {
		all = append(all, p...)
	}
	return &relation.Relation{Schema: rel.Schema, Partitions: [][]relation.Row{all}}
}

// checkCompact runs the encoding/compaction invariant family for one
// workload: for P ∈ {1, 2, 7},
//
//	raw store == dict/RLE-encoded store        bitwise, same partitioning
//	raw store == compacted encoded store       bitwise, concatenated
//	oracle(full scan) == ScanStage (pushdown)  over encoded AND compacted
//
// plus one ScanStage over the real TCP cluster reading encoded segment
// files. Raw and encoded stores share a partitioning, so equality is
// per-partition; compaction changes the layout, so its scans compare
// flattened and its pushdown runs against its own oracle.
func (e *Env) checkCompact(ctx context.Context, w *Workload, dir string) []string {
	var fails []string
	fail := func(invariant, detail string) {
		fails = append(fails, Report(w, invariant, detail))
	}
	ops := scanRootOps(w)
	clusterP := []int{1, 2, 7}[uint64(w.Seed)%3]

	for _, p := range []int{1, 2, 7} {
		raw, err := buildStoreWith(filepath.Join(dir, fmt.Sprintf("p%d-raw", p)), w, p, segstore.Options{})
		if err != nil {
			fail(fmt.Sprintf("compact-store-raw p=%d", p), err.Error())
			continue
		}
		enc, err := buildStoreWith(filepath.Join(dir, fmt.Sprintf("p%d-enc", p)), w, p,
			segstore.Options{Encodings: true, Compress: w.Seed%2 == 0})
		if err != nil {
			fail(fmt.Sprintf("compact-store-enc p=%d", p), err.Error())
			continue
		}
		rawFull, err := raw.Scan(ctx, engine.Pushdown{})
		if err != nil {
			fail(fmt.Sprintf("compact-scan-raw p=%d", p), err.Error())
			continue
		}
		encFull, err := enc.Scan(ctx, engine.Pushdown{})
		if err != nil {
			fail(fmt.Sprintf("compact-scan-enc p=%d", p), err.Error())
			continue
		}
		if d := DiffExact(rawFull, encFull); d != "" {
			fail(fmt.Sprintf("compact-encoded-equals-raw p=%d", p), d)
		}
		ref, err := oracle.RunStage(rawFull, ops)
		if err != nil {
			fail(fmt.Sprintf("compact-oracle p=%d", p), err.Error())
			continue
		}
		sres, _, err := engine.ScanStage(ctx, e.Local, enc, ops)
		if err != nil {
			fail(fmt.Sprintf("compact-pushdown-enc p=%d", p), err.Error())
		} else if d := DiffExact(ref, sres); d != "" {
			fail(fmt.Sprintf("compact-pushdown-enc p=%d", p), d)
		}

		cst, err := buildStoreWith(filepath.Join(dir, fmt.Sprintf("p%d-compact", p)), w, p,
			segstore.Options{Encodings: true})
		if err != nil {
			fail(fmt.Sprintf("compact-store-compact p=%d", p), err.Error())
			continue
		}
		if _, err := cst.Compact(segstore.CompactOptions{}); err != nil {
			fail(fmt.Sprintf("compact-run p=%d", p), err.Error())
			continue
		}
		compFull, err := cst.Scan(ctx, engine.Pushdown{})
		if err != nil {
			fail(fmt.Sprintf("compact-scan-compacted p=%d", p), err.Error())
			continue
		}
		if d := DiffExact(flatten(rawFull), flatten(compFull)); d != "" {
			fail(fmt.Sprintf("compact-compacted-equals-raw p=%d", p), d)
		}
		cref, err := oracle.RunStage(compFull, ops)
		if err != nil {
			fail(fmt.Sprintf("compact-oracle-compacted p=%d", p), err.Error())
			continue
		}
		csres, _, err := engine.ScanStage(ctx, e.Local, cst, ops)
		if err != nil {
			fail(fmt.Sprintf("compact-pushdown-compacted p=%d", p), err.Error())
		} else if d := DiffExact(cref, csres); d != "" {
			fail(fmt.Sprintf("compact-pushdown-compacted p=%d", p), d)
		}

		if p != clusterP {
			continue
		}
		cres, _, err := engine.ScanStage(ctx, e.driver(), enc, ops)
		if err != nil {
			fail(fmt.Sprintf("compact-cluster-enc p=%d", p), err.Error())
		} else if d := DiffExact(ref, cres); d != "" {
			fail(fmt.Sprintf("compact-cluster-enc p=%d", p), d)
		}
	}
	return fails
}

// TestCompactDifferential drives the encoding/compaction invariants
// over the seeded workload population (the `make difftest FAMILY=compact` CI
// job). Replay one failure with -difftest.seed=<seed>
// -difftest.encoding.
func TestCompactDifferential(t *testing.T) {
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
		if *flagEncoding {
			t.Logf("seed %d ops:\n%s", seed, FormatOps(scanRootOps(w)))
		}
		for _, rep := range env.checkCompact(ctx, w, t.TempDir()) {
			t.Errorf("\n%s", rep)
			failures++
		}
		if failures >= 3 {
			t.Fatalf("stopping after %d mismatches", failures)
		}
	}
}

// TestCompactDifferentialCatchesWrongRunLength demonstrates detection
// power: a corrupted RLE writer that swaps two run lengths produces a
// chunk that is structurally valid — runs still cover exactly the
// non-null cells, so decode succeeds — but assigns wrong values to the
// rows in between. The raw-equals-encoded bitwise invariant must catch
// it with a replayable report.
func TestCompactDifferentialCatchesWrongRunLength(t *testing.T) {
	colcodec.DebugMutateRuns = func(lens []int) {
		if len(lens) >= 2 && lens[0] != lens[1] {
			lens[0], lens[1] = lens[1], lens[0]
		}
	}
	defer func() { colcodec.DebugMutateRuns = nil }()
	ctx := context.Background()

	// A deterministic RLE-shaped workload: val holds two runs of unequal
	// length (40 zeros, 88 ones), so the injected swap reassigns rows
	// 40–87 — while ts stays distinct (raw) and sid constant (one run,
	// unaffected).
	sch := relation.NewSchema(
		relation.Column{Name: "ts", Kind: relation.KindInt},
		relation.Column{Name: "val", Kind: relation.KindFloat},
		relation.Column{Name: "sid", Kind: relation.KindString},
	)
	rows := make([]relation.Row, 128)
	for i := range rows {
		v := 0.0
		if i >= 40 {
			v = 1.0
		}
		rows[i] = relation.Row{relation.Int(int64(i)), relation.Float(v), relation.Str("s")}
	}
	w := &Workload{Seed: 424242, Schema: sch, Rows: rows}

	raw, err := buildStoreWith(filepath.Join(t.TempDir(), "raw"), w, 1, segstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := buildStoreWith(filepath.Join(t.TempDir(), "enc"), w, 1, segstore.Options{Encodings: true})
	if err != nil {
		t.Fatal(err)
	}
	rawFull, err := raw.Scan(ctx, engine.Pushdown{})
	if err != nil {
		t.Fatal(err)
	}
	encFull, err := enc.Scan(ctx, engine.Pushdown{})
	if err != nil {
		t.Fatal(err)
	}
	d := DiffExact(rawFull, encFull)
	if d == "" {
		t.Fatal("swapped run lengths survived the raw-equals-encoded invariant")
	}
	rep := Report(w, "injected-wrong-run-length", d)
	for _, token := range []string{"seed:", "-difftest.seed=", "partition"} {
		if !strings.Contains(rep, token) {
			t.Fatalf("report missing %q:\n%s", token, rep)
		}
	}
	t.Logf("wrong run length caught:\n%s", rep)
}

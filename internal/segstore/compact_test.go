package segstore

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ivnt/internal/engine"
	"ivnt/internal/relation"
)

// seqRows builds rowsPer deterministic low-cardinality rows starting at
// base (the shape compaction re-encodes in production).
func seqRows(base, rowsPer int) []relation.Row {
	rows := make([]relation.Row, rowsPer)
	for i := range rows {
		ts := base + i
		rows[i] = relation.Row{
			relation.Int(int64(ts)),
			relation.Float(float64((ts / 16) % 4)),
			relation.Str([]string{"sig-a", "sig-b"}[(ts/32)%2]),
		}
	}
	return rows
}

// fillStore appends nseg segments of rowsPer rows and returns the full
// row sequence in store order.
func fillStore(t *testing.T, st *Store, nseg, rowsPer int) []relation.Row {
	t.Helper()
	var all []relation.Row
	for s := 0; s < nseg; s++ {
		rows := seqRows(s*rowsPer, rowsPer)
		if err := st.AppendSegment(rows); err != nil {
			t.Fatal(err)
		}
		all = append(all, rows...)
	}
	return all
}

// storeRows returns the store's full scan concatenated in partition
// order.
func storeRows(t *testing.T, st *Store) []relation.Row {
	t.Helper()
	rel, err := st.Scan(context.Background(), engine.Pushdown{})
	if err != nil {
		t.Fatal(err)
	}
	var all []relation.Row
	for _, p := range rel.Partitions {
		all = append(all, p...)
	}
	return all
}

func TestCompactMergesAndPreservesRows(t *testing.T) {
	for _, opts := range []Options{{}, {Compress: true}, {Encodings: true}, {Compress: true, Encodings: true}} {
		t.Run(fmt.Sprintf("%+v", opts), func(t *testing.T) {
			st, err := Open(t.TempDir(), testSchema(), opts)
			if err != nil {
				t.Fatal(err)
			}
			want := fillStore(t, st, 8, 32)
			genBefore := st.Generation()

			groups, err := st.Compact(CompactOptions{TargetRows: 1 << 16})
			if err != nil {
				t.Fatal(err)
			}
			if groups != 1 {
				t.Fatalf("groups = %d, want 1", groups)
			}
			if n := st.NumSegments(); n != 1 {
				t.Fatalf("segments = %d, want 1", n)
			}
			if st.Generation() <= genBefore {
				t.Fatalf("generation %d did not bump past %d", st.Generation(), genBefore)
			}
			if got := storeRows(t, st); !rowsEq(got, want) {
				t.Fatalf("rows differ after compaction (%d vs %d)", len(got), len(want))
			}
		})
	}
}

func TestCompactRespectsTargetRows(t *testing.T) {
	st := openTestStore(t, false)
	want := fillStore(t, st, 10, 4) // 40 rows in 10 micro-segments
	// 12-row target → three groups of 3; the lone tail segment is below
	// MinSegments and stays.
	groups, err := st.Compact(CompactOptions{TargetRows: 12, MinSegments: 2})
	if err != nil {
		t.Fatal(err)
	}
	if groups != 3 {
		t.Fatalf("groups = %d, want 3", groups)
	}
	if n := st.NumSegments(); n != 4 {
		t.Fatalf("segments = %d, want 4", n)
	}
	if got := storeRows(t, st); !rowsEq(got, want) {
		t.Fatal("rows differ after targeted compaction")
	}
	// Large segments are left alone: a second pass finds nothing small
	// enough to pair under the same target.
	groups, err = st.Compact(CompactOptions{TargetRows: 12, MinSegments: 2})
	if err != nil {
		t.Fatal(err)
	}
	if groups != 0 {
		t.Fatalf("second pass rewrote %d groups, want 0", groups)
	}
}

// TestCompactRetiresThenDeletes: replaced files survive the committing
// pass (in-flight scans may still hold them) and are deleted by the
// next pass.
func TestCompactRetiresThenDeletes(t *testing.T) {
	st := openTestStore(t, false)
	fillStore(t, st, 4, 8)
	oldPaths := st.SegmentPaths()
	if _, err := st.Compact(CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, p := range oldPaths {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("replaced segment %s deleted in the committing pass", filepath.Base(p))
		}
	}
	if _, err := st.Compact(CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, p := range oldPaths {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("retired segment %s not deleted by the next pass", filepath.Base(p))
		}
	}
}

// TestCompactSurvivesReopen: a reopened store sees the compacted
// manifest, reclaims retired orphans, and scans identically.
func TestCompactSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, testSchema(), Options{Encodings: true})
	if err != nil {
		t.Fatal(err)
	}
	want := fillStore(t, st, 6, 16)
	oldPaths := st.SegmentPaths()
	if _, err := st.Compact(CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	gen := st.Generation()

	re, err := Open(dir, relation.Schema{}, Options{Encodings: true})
	if err != nil {
		t.Fatal(err)
	}
	if re.Generation() != gen {
		t.Fatalf("generation %d after reopen, want %d", re.Generation(), gen)
	}
	if n := re.NumSegments(); n != 1 {
		t.Fatalf("segments = %d after reopen, want 1", n)
	}
	if got := storeRows(t, re); !rowsEq(got, want) {
		t.Fatal("rows differ after reopen")
	}
	// Open reclaims the unmanifested pre-compaction files.
	for _, p := range oldPaths {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("orphan %s survived reopen", filepath.Base(p))
		}
	}
}

// TestCompactCrashMidSeal kills the compactor at every seal stage: the
// manifest (and therefore every reader) must keep seeing the
// pre-compaction state, and a retried pass must succeed cleanly.
func TestCompactCrashMidSeal(t *testing.T) {
	for _, stage := range []string{"chunks", "footer", "sync", "rename", "manifest", "torn", "logsync"} {
		t.Run(stage, func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(dir, testSchema(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			want := fillStore(t, st, 4, 8)
			genBefore := st.Generation()

			DebugSealFailure = func(s string) error {
				if s == stage {
					return fmt.Errorf("killed at %s", s)
				}
				return nil
			}
			_, err = st.Compact(CompactOptions{})
			DebugSealFailure = nil
			if err == nil || !strings.Contains(err.Error(), "injected crash") {
				t.Fatalf("stage %s: err = %v", stage, err)
			}
			if st.Generation() != genBefore {
				t.Fatalf("stage %s: generation moved on a failed compaction", stage)
			}
			if n := st.NumSegments(); n != 4 {
				t.Fatalf("stage %s: segments = %d, want 4", stage, n)
			}
			if got := storeRows(t, st); !rowsEq(got, want) {
				t.Fatalf("stage %s: rows changed under a failed compaction", stage)
			}
			// A clean retry — and a reopen of the torn directory — both work.
			if _, err := st.Compact(CompactOptions{}); err != nil {
				t.Fatalf("stage %s: retry: %v", stage, err)
			}
			if got := storeRows(t, st); !rowsEq(got, want) {
				t.Fatalf("stage %s: rows differ after retried compaction", stage)
			}
			re, err := Open(dir, relation.Schema{}, Options{})
			if err != nil {
				t.Fatalf("stage %s: reopen: %v", stage, err)
			}
			if got := storeRows(t, re); !rowsEq(got, want) {
				t.Fatalf("stage %s: rows differ after reopen", stage)
			}
		})
	}
}

// TestCompactConcurrentAppends: appends racing a compaction never lose
// rows — the group splice only touches segments that existed at plan
// time, appends land at the tail.
func TestCompactConcurrentAppends(t *testing.T) {
	st := openTestStore(t, false)
	fillStore(t, st, 6, 8)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for s := 6; s < 12; s++ {
			if err := st.AppendSegment(seqRows(s*8, 8)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		if _, err := st.Compact(CompactOptions{}); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
	if got := st.Rows(); got != 96 {
		t.Fatalf("rows = %d after racing append/compact, want 96", got)
	}
	rows := storeRows(t, st)
	if len(rows) != 96 {
		t.Fatalf("scan returned %d rows, want 96", len(rows))
	}
	seen := map[int64]bool{}
	for _, r := range rows {
		seen[r[0].I] = true
	}
	if len(seen) != 96 {
		t.Fatalf("distinct ts = %d, want 96", len(seen))
	}
}

// TestMmapReadEquality: OpenSegment's mapped reads and
// OpenSegmentReaderAt's pread copies decode identical rows, and the
// mmap counter moves once per mapped segment only.
func TestMmapReadEquality(t *testing.T) {
	if !mmapSupported {
		t.Skip("no mmap on this platform")
	}
	st := openTestStore(t, true)
	want := fillStore(t, st, 2, 64)

	var mapped, copied []relation.Row
	for _, path := range st.SegmentPaths() {
		before := mSegmentsMmapped.Value()
		g, err := OpenSegment(path)
		if err != nil {
			t.Fatal(err)
		}
		if d := mSegmentsMmapped.Value() - before; d != 1 || g.mm == nil {
			t.Fatalf("%s: mmap counter moved by %d (mapped=%v), want 1", path, d, g.mm != nil)
		}
		_, rows, err := g.ReadColumns(nil)
		g.Close()
		if err != nil {
			t.Fatal(err)
		}
		mapped = append(mapped, rows...)

		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		fi, err := f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		before = mSegmentsMmapped.Value()
		p, err := OpenSegmentReaderAt(f, fi.Size())
		if err != nil {
			t.Fatal(err)
		}
		_, rows, err = p.ReadColumns(nil)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if d := mSegmentsMmapped.Value() - before; d != 0 || p.mm != nil {
			t.Fatalf("%s: mmap counter moved by %d on the pread path", path, d)
		}
		copied = append(copied, rows...)
	}

	if !rowsEq(mapped, copied) || !rowsEq(mapped, want) {
		t.Fatal("mmap and pread reads differ")
	}
}

package segstore

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ivnt/internal/engine"
	"ivnt/internal/relation"
)

// serialScan is the reference the parallel Store.Scan must reproduce:
// every segment read one after another in manifest order, pruned ones
// left as empty partitions.
func serialScan(t *testing.T, st *Store, pd engine.Pushdown) [][]relation.Row {
	t.Helper()
	refs, err := st.Segments(pd)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([][]relation.Row, len(refs))
	for i, ref := range refs {
		if ref.Pruned {
			continue
		}
		if _, parts[i], err = ReadSegmentRows(ref.Path, ref.Cols, ref.Ranges); err != nil {
			t.Fatal(err)
		}
	}
	return parts
}

// TestParallelScanMatchesSerial: partition order, contents and the
// empty pruned partitions of the parallel scan equal a serial read, for
// full, projected and pruning scans over encoded and raw segments.
func TestParallelScanMatchesSerial(t *testing.T) {
	ctx := context.Background()
	for _, opts := range []Options{{}, {Compress: true, Encodings: true}} {
		st, err := Open(t.TempDir(), testSchema(), opts)
		if err != nil {
			t.Fatal(err)
		}
		fillStore(t, st, 11, 300)
		for _, pd := range []engine.Pushdown{
			{},
			{Cols: []string{"sid", "ts"}},
			{Filters: []string{"ts >= 900 && ts < 2100"}},
			{Filters: []string{"ts < 0"}},
			{Filters: []string{"ts >= 1500"}, Cols: []string{"val"}},
		} {
			rel, err := st.Scan(ctx, pd)
			if err != nil {
				t.Fatal(err)
			}
			want := serialScan(t, st, pd)
			if len(rel.Partitions) != len(want) {
				t.Fatalf("%+v: %d partitions, want %d", pd, len(rel.Partitions), len(want))
			}
			pruned := 0
			for i := range want {
				if want[i] == nil {
					pruned++
					if len(rel.Partitions[i]) != 0 {
						t.Fatalf("%+v: pruned partition %d has %d rows", pd, i, len(rel.Partitions[i]))
					}
					continue
				}
				if !rowsEq(rel.Partitions[i], want[i]) {
					t.Fatalf("%+v %+v: partition %d differs from the serial read", opts, pd, i)
				}
			}
			if len(pd.Filters) > 0 && pruned == 0 {
				t.Fatalf("%+v: fixture should prune some segments", pd)
			}
		}
	}
}

// corruptChunk overwrites the flags byte of a segment's first column
// chunk: the footer stays valid, so the segment opens and only its
// decode fails.
func corruptChunk(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[headerLen+2] = 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestParallelScanReportsCorruptSegment: a segment corrupted in the
// middle of the manifest fails the scan with that segment's error, and
// with two corrupt segments the lower one is reported every time — the
// error a serial scan would return, independent of worker timing.
func TestParallelScanReportsCorruptSegment(t *testing.T) {
	ctx := context.Background()
	st, err := Open(t.TempDir(), testSchema(), Options{Compress: true, Encodings: true})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, st, 12, 200)
	paths := st.SegmentPaths()
	corruptChunk(t, paths[6])
	for i := 0; i < 5; i++ {
		_, err := st.Scan(ctx, engine.Pushdown{})
		if err == nil || !strings.Contains(err.Error(), paths[6]) {
			t.Fatalf("scan error %v does not name corrupt segment %s", err, paths[6])
		}
	}
	corruptChunk(t, paths[9])
	corruptChunk(t, paths[4])
	for i := 0; i < 20; i++ {
		_, err := st.Scan(ctx, engine.Pushdown{})
		if err == nil || !strings.Contains(err.Error(), paths[4]) {
			t.Fatalf("scan error %v, want the lowest corrupt segment %s", err, paths[4])
		}
	}
}

func TestParallelScanCancelled(t *testing.T) {
	st, err := Open(t.TempDir(), testSchema(), Options{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, st, 6, 100)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := st.Scan(ctx, engine.Pushdown{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("scan under a cancelled context: err = %v", err)
	}
}

// TestForEachOrdered pins the worker pool's contract: the lowest failing
// index's error wins even when a higher index fails first, indexes far
// above a failure never start, and every lower index still runs.
func TestForEachOrdered(t *testing.T) {
	const n = 200
	var ran [n]atomic.Bool
	err := forEachOrdered(n, 4, func(i int) error {
		ran[i].Store(true)
		switch i {
		case 5:
			time.Sleep(20 * time.Millisecond) // fails after index 7 did
			return fmt.Errorf("fail %d", i)
		case 7, 150:
			return fmt.Errorf("fail %d", i)
		}
		if i > 7 {
			time.Sleep(time.Millisecond) // keeps 150 far out of reach
		}
		return nil
	})
	if err == nil || err.Error() != "fail 5" {
		t.Fatalf("err = %v, want fail 5", err)
	}
	for i := 0; i < 5; i++ {
		if !ran[i].Load() {
			t.Fatalf("index %d below the failure never ran", i)
		}
	}
	if ran[150].Load() {
		t.Fatal("index 150 started long after index 7 failed")
	}

	var count atomic.Int64
	if err := forEachOrdered(n, 3, func(int) error { count.Add(1); return nil }); err != nil || count.Load() != n {
		t.Fatalf("clean run: err %v, %d of %d calls", err, count.Load(), n)
	}
	if err := forEachOrdered(0, 3, func(int) error { return errors.New("never called") }); err != nil {
		t.Fatal(err)
	}
}

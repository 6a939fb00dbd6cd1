package segstore

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ivnt/internal/engine"
	"ivnt/internal/relation"
	"ivnt/internal/telemetry"
)

func testSchema() relation.Schema {
	return relation.NewSchema(
		relation.Column{Name: "ts", Kind: relation.KindInt},
		relation.Column{Name: "val", Kind: relation.KindFloat},
		relation.Column{Name: "sid", Kind: relation.KindString},
	)
}

// testRows mixes every comparison class the pruner reasons about:
// ints, floats, NaN, nulls, plain strings and numeric strings.
func testRows() []relation.Row {
	return []relation.Row{
		{relation.Int(10), relation.Float(1.5), relation.Str("a")},
		{relation.Int(20), relation.Float(math.NaN()), relation.Str("b")},
		{relation.Int(30), relation.Null(), relation.Str("42")},
		{relation.Int(40), relation.Float(-3.25), relation.Str("c")},
	}
}

// valEq compares two cells bitwise: float cells by their bit pattern
// (so NaN == NaN and -0.0 != 0.0), everything else structurally.
func valEq(a, b relation.Value) bool {
	if a.K != b.K {
		return false
	}
	if a.K == relation.KindFloat {
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	}
	return reflect.DeepEqual(a, b)
}

func rowsEq(a, b []relation.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if !valEq(a[i][j], b[i][j]) {
				return false
			}
		}
	}
	return true
}

func openTestStore(t *testing.T, compress bool) *Store {
	t.Helper()
	st, err := Open(t.TempDir(), testSchema(), Options{Compress: compress})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestSegmentRoundTrip(t *testing.T) {
	for _, compress := range []bool{false, true} {
		t.Run(fmt.Sprintf("compress=%v", compress), func(t *testing.T) {
			st := openTestStore(t, compress)
			want := testRows()
			if err := st.AppendSegment(want); err != nil {
				t.Fatal(err)
			}
			s, got, err := ReadSegmentRows(st.SegmentPaths()[0], nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !s.Equal(testSchema()) {
				t.Fatalf("schema %s, want %s", s, testSchema())
			}
			if !rowsEq(got, want) {
				t.Fatalf("rows differ after round trip:\n got %v\nwant %v", got, want)
			}
		})
	}
}

// TestLazyColumnProjection proves the zero-decode guarantee: reading
// one column of a two-segment store touches exactly that column's
// chunk bytes, as observed through the segstore_bytes_decoded counter.
func TestLazyColumnProjection(t *testing.T) {
	st := openTestStore(t, false)
	if err := st.AppendSegment(testRows()); err != nil {
		t.Fatal(err)
	}
	g, err := OpenSegment(st.SegmentPaths()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	tsSize := g.foot.col("ts").size
	total := int64(0)
	for i := range g.foot.cols {
		total += g.foot.cols[i].size
	}
	if tsSize >= total {
		t.Fatalf("test needs ts chunk (%d) smaller than all chunks (%d)", tsSize, total)
	}

	before := telemetry.Default().CounterValue("segstore_bytes_decoded_total")
	s, rows, err := g.ReadColumns([]string{"ts"})
	if err != nil {
		t.Fatal(err)
	}
	decoded := telemetry.Default().CounterValue("segstore_bytes_decoded_total") - before
	if decoded != tsSize {
		t.Fatalf("decoded %d bytes reading ts, want exactly its chunk size %d", decoded, tsSize)
	}
	if s.Len() != 1 || s.Cols[0].Name != "ts" {
		t.Fatalf("projected schema %s, want just ts", s)
	}
	for i, r := range rows {
		if !valEq(r[0], testRows()[i][0]) {
			t.Fatalf("row %d: got %v", i, r[0])
		}
	}
	if _, _, err := g.ReadColumns([]string{"nosuch"}); err == nil {
		t.Fatal("reading a missing column must fail")
	}
}

// TestSatisfiable pins the pruning rules against the expression
// engine's comparison semantics (see prune.go).
func TestSatisfiable(t *testing.T) {
	// Zone of a pure numeric column over 4 rows: values {1.5, 2, 30}, one null.
	num := ZoneMap{Nulls: 1, NumKind: 3, NumOrd: 3, FHas: true, FMin: 1.5, FMax: 30}
	// All four cells numeric, one of them NaN.
	nan := ZoneMap{NumKind: 4, NumOrd: 4, NaNs: 1, FHas: true, FMin: 1.5, FMax: 30}
	// Pure string column (plus a null).
	str := ZoneMap{Nulls: 1, Strs: 3, SHas: true, SMin: "b", SMax: "f"}
	// Mixed column: 2 strings (one numeric string "42"), 1 int, 1 null.
	mixed := ZoneMap{Nulls: 1, NumKind: 1, NumOrd: 2, Strs: 2, FHas: true, FMin: 10, FMax: 42, SHas: true, SMin: "42", SMax: "x"}
	// All nulls.
	nulls := ZoneMap{Nulls: 4}

	cases := []struct {
		name string
		z    ZoneMap
		op   string
		lit  relation.Value
		want bool
	}{
		{"all-null kills everything", nulls, "==", relation.Int(0), false},
		{"all-null ordered", nulls, "<", relation.Int(1000), false},

		{"eq inside range", num, "==", relation.Int(2), true},
		{"eq below range", num, "==", relation.Int(1), false},
		{"eq above range", num, "==", relation.Float(30.5), false},
		{"eq NaN literal", num, "==", relation.Float(math.NaN()), false},
		{"eq string literal no strings", num, "==", relation.Str("zzz"), false},

		{"lt above min", num, "<", relation.Int(2), true},
		{"lt at min", num, "<", relation.Float(1.5), false},
		{"le at min", num, "<=", relation.Float(1.5), true},
		{"le below min", num, "<=", relation.Int(1), false},
		{"gt below max", num, ">", relation.Int(29), true},
		{"gt at max", num, ">", relation.Int(30), false},
		{"ge at max", num, ">=", relation.Int(30), true},
		{"ge above max", num, ">=", relation.Int(31), false},

		// NaN cells order as equal to everything: <=/>= stay satisfiable
		// out of range, </> do not.
		{"nan saves le", nan, "<=", relation.Int(0), true},
		{"nan saves ge", nan, ">=", relation.Int(100), true},
		{"nan does not save lt", nan, "<", relation.Int(1), false},
		{"nan does not save gt", nan, ">", relation.Int(31), false},

		{"str eq inside", str, "==", relation.Str("c"), true},
		{"str eq outside", str, "==", relation.Str("a"), false},
		{"str lt at min", str, "<", relation.Str("b"), false},
		{"str lt above min", str, "<", relation.Str("c"), true},
		{"str gt at max", str, ">", relation.Str("f"), false},
		{"str numeric lit vs strings", str, "<", relation.Int(0), true}, // lexicographic cells: no float claim

		// Mixed columns: == prunable per class, ordered never prunable
		// (cells straddle both comparison regimes).
		{"mixed eq num outside", mixed, "==", relation.Int(5), false},
		{"mixed eq num inside", mixed, "==", relation.Int(11), true},
		{"mixed eq str outside", mixed, "==", relation.Str("zz"), false},
		{"mixed ordered unprunable", mixed, "<", relation.Int(-1000), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := satisfiable(conjunct{col: "c", op: tc.op, lit: tc.lit}, tc.z, 4)
			if got != tc.want {
				t.Fatalf("satisfiable(%s %v, %+v) = %v, want %v", tc.op, tc.lit, tc.z, got, tc.want)
			}
		})
	}
}

// TestPruningNeverDropsMatches is a randomized soundness check: for
// random segments and random conjunct filters, a pruned segment must
// contain no row satisfying the filter (checked by running the real
// engine on the segment's rows).
func TestPruningNeverDropsMatches(t *testing.T) {
	ctx := context.Background()
	filters := []string{
		"ts < 25", "ts <= 10", "ts > 100", "ts >= 40", "ts == 20",
		"val < 0", "val >= 1.5", "val == -3.25", "sid == \"b\"",
		"sid > \"a\" && ts < 15", "-5 > ts", "ts == -10",
	}
	st := openTestStore(t, false)
	if err := st.AppendSegment(testRows()); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendSegment([]relation.Row{
		{relation.Int(100), relation.Float(7), relation.Str("q")},
		{relation.Int(200), relation.Float(8), relation.Str("r")},
	}); err != nil {
		t.Fatal(err)
	}
	local := engine.NewLocal(2)
	for _, f := range filters {
		refs, err := st.Segments(engine.Pushdown{Filters: []string{f}})
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		for i, ref := range refs {
			if !ref.Pruned {
				continue
			}
			_, rows, err := ReadSegmentRows(ref.Path, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			rel := &relation.Relation{Schema: st.Schema(), Partitions: [][]relation.Row{rows}}
			out, _, err := local.RunStage(ctx, rel, []engine.OpDesc{engine.Filter(f)})
			if err != nil {
				t.Fatalf("%s: %v", f, err)
			}
			if out.NumRows() != 0 {
				t.Fatalf("filter %q: segment %d pruned but %d rows match", f, i, out.NumRows())
			}
		}
	}
}

// TestScanPushdownEquivalence: ScanStage over the store (pruning +
// column restriction) is bitwise-identical to running the same ops on
// the full materialized relation.
func TestScanPushdownEquivalence(t *testing.T) {
	ctx := context.Background()
	st := openTestStore(t, true)
	if err := st.AppendSegment(testRows()); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendSegment([]relation.Row{
		{relation.Int(100), relation.Float(7), relation.Str("q")},
	}); err != nil {
		t.Fatal(err)
	}
	local := engine.NewLocal(2)
	ops := []engine.OpDesc{
		engine.Filter("ts < 50"),
		engine.Project("ts", "sid"),
	}
	full, err := st.Scan(ctx, engine.Pushdown{})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := local.RunStage(ctx, full, ops)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := engine.ScanStage(ctx, local, st, ops)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Schema.Equal(got.Schema) || len(want.Partitions) != len(got.Partitions) {
		t.Fatalf("shape mismatch: %s/%d vs %s/%d", want.Schema, len(want.Partitions), got.Schema, len(got.Partitions))
	}
	for pi := range want.Partitions {
		if !rowsEq(want.Partitions[pi], got.Partitions[pi]) {
			t.Fatalf("partition %d differs", pi)
		}
	}
	// The second segment (ts=100) must actually have been pruned.
	refs, err := st.Segments(engine.Pushdown{Filters: []string{"ts < 50"}})
	if err != nil {
		t.Fatal(err)
	}
	if refs[0].Pruned || !refs[1].Pruned {
		t.Fatalf("want exactly segment 1 pruned, got %+v", refs)
	}
}

func TestStoreReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, testSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendSegment(testRows()); err != nil {
		t.Fatal(err)
	}
	// Reopen with no schema: adopts the manifest's.
	st2, err := Open(dir, relation.Schema{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Schema().Equal(testSchema()) || st2.NumSegments() != 1 || st2.Rows() != 4 {
		t.Fatalf("reopen lost state: schema %s, %d segs, %d rows", st2.Schema(), st2.NumSegments(), st2.Rows())
	}
	// Appending after reopen must not collide with existing ids.
	if err := st2.AppendSegment(testRows()); err != nil {
		t.Fatal(err)
	}
	if names := st2.SortedSegmentNames(); len(names) != 2 || names[0] == names[1] {
		t.Fatalf("bad segment names %v", names)
	}
	// Reopen with a conflicting schema must fail.
	other := relation.NewSchema(relation.Column{Name: "x", Kind: relation.KindInt})
	if _, err := Open(dir, other, Options{}); err == nil {
		t.Fatal("schema mismatch must fail Open")
	}
	// No manifest and no schema must fail.
	if _, err := Open(t.TempDir(), relation.Schema{}, Options{}); err == nil {
		t.Fatal("empty dir without schema must fail Open")
	}
}

func TestManifestCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, testSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendSegment(testRows()); err != nil {
		t.Fatal(err)
	}
	mpath := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(mpath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, relation.Schema{}, Options{}); err == nil {
		t.Fatal("corrupt manifest must fail Open")
	}
}

// TestManifestLog pins the manifest log's contract: each commit appends
// one frame, Open takes the last complete one and ignores a torn tail,
// a corrupt complete frame anywhere fails Open, and Compact replaces
// the log with one frame.
func TestManifestLog(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, testSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	mpath := filepath.Join(dir, manifestName)
	one, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := st.AppendSegment(testRows()); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, one) {
		t.Fatal("a commit rewrote the log instead of appending to it")
	}
	if p, torn, err := parseManifest(data); err != nil || torn || len(p.Segs) != 3 {
		t.Fatalf("log after 3 appends: torn=%v err=%v", torn, err)
	}

	// A torn final frame is ignored; its segment becomes an orphan.
	if err := os.WriteFile(mpath, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, relation.Schema{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if re.NumSegments() != 2 || re.Generation() != 2 {
		t.Fatalf("torn tail: %d segments, generation %d; want 2, 2", re.NumSegments(), re.Generation())
	}
	if names, _ := filepath.Glob(filepath.Join(dir, "seg-*.ivsg")); len(names) != 2 {
		t.Fatalf("torn tail: %d segment files left, want the orphan removed", len(names))
	}

	// A complete frame with a bad CRC fails, even when it is not the last.
	bad := append([]byte{}, data...)
	bad[len(one)+12] ^= 0xFF // first append frame's payload
	if err := os.WriteFile(mpath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, relation.Schema{}, Options{}); err == nil {
		t.Fatal("corrupt middle frame accepted")
	}
	// So does a length field no append frame can have: it is corruption,
	// not a torn tail.
	bad = append([]byte{}, data...)
	bad[len(one)+4] ^= 0xFF
	if err := os.WriteFile(mpath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, relation.Schema{}, Options{}); err == nil {
		t.Fatal("corrupt append frame length accepted as a torn tail")
	}

	// So does an append frame naming a segment the log already names.
	last := data[len(data)-(len(data)-len(one))/3:] // the third append frame
	if err := os.WriteFile(mpath, append(append([]byte{}, data...), last...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, relation.Schema{}, Options{}); err == nil || !strings.Contains(err.Error(), "appended twice") {
		t.Fatalf("duplicate append frame: err = %v", err)
	}

	// Compact replaces the (torn) log by one frame.
	if err := os.WriteFile(mpath, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	re, err = Open(dir, relation.Schema{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := re.Compact(CompactOptions{}); err != nil || n != 1 {
		t.Fatalf("compact: %d groups, err %v", n, err)
	}
	data, err = os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	plen := int(le32(data[4:8]))
	if len(data) != 12+plen {
		t.Fatalf("compacted log holds %d bytes, one frame is %d", len(data), 12+plen)
	}
}

// TestCrashRecovery kills the writer at every stage of a segment seal
// and proves the store reopens with previously sealed segments intact
// bit for bit and the torn segment invisible.
func TestCrashRecovery(t *testing.T) {
	for _, stage := range []string{"chunks", "footer", "sync", "rename", "manifest", "torn", "logsync"} {
		t.Run(stage, func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(dir, testSchema(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := st.AppendSegment(testRows()); err != nil {
				t.Fatal(err)
			}
			sealedPath := st.SegmentPaths()[0]
			sealedBytes, err := os.ReadFile(sealedPath)
			if err != nil {
				t.Fatal(err)
			}
			logBefore, err := os.ReadFile(filepath.Join(dir, manifestName))
			if err != nil {
				t.Fatal(err)
			}

			DebugSealFailure = func(s string) error {
				if s == stage {
					return fmt.Errorf("killed at %s", s)
				}
				return nil
			}
			defer func() { DebugSealFailure = nil }()
			if err := st.AppendSegment(testRows()); err == nil {
				t.Fatalf("injected crash at %s did not surface", stage)
			}
			DebugSealFailure = nil
			// A failed commit leaves the log as it was: even a fully
			// written frame is cut back off, so no reopen can replay it.
			if logAfter, err := os.ReadFile(filepath.Join(dir, manifestName)); err != nil || !bytes.Equal(logBefore, logAfter) {
				t.Fatalf("crash at %s: manifest log changed by a failed commit (%d -> %d bytes, err %v)", stage, len(logBefore), len(logAfter), err)
			}

			// Reopen as a fresh process would.
			re, err := Open(dir, relation.Schema{}, Options{})
			if err != nil {
				t.Fatalf("reopen after crash at %s: %v", stage, err)
			}
			if re.NumSegments() != 1 {
				t.Fatalf("crash at %s: %d committed segments, want 1", stage, re.NumSegments())
			}
			after, err := os.ReadFile(sealedPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sealedBytes, after) {
				t.Fatalf("crash at %s altered a sealed segment", stage)
			}
			// No temp files survive Open.
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if filepath.Ext(e.Name()) == ".tmp" {
					t.Fatalf("crash at %s: %s survived reopen", stage, e.Name())
				}
			}
			// And the store still works: the next append commits.
			if err := re.AppendSegment(testRows()); err != nil {
				t.Fatal(err)
			}
			if got, _, err := ReadSegmentRows(re.SegmentPaths()[1], nil, nil); err != nil || len(got.Cols) != 3 {
				t.Fatalf("post-recovery append unreadable: %v", err)
			}
			// A failed append cut its frame back off the log, so it reads
			// clean.
			data, err := os.ReadFile(filepath.Join(dir, manifestName))
			if err != nil {
				t.Fatal(err)
			}
			if p, torn, err := parseManifest(data); err != nil || torn || len(p.Segs) != 2 {
				t.Fatalf("crash at %s: manifest after recovery: torn=%v err=%v", stage, torn, err)
			}
		})
	}
}

func TestWriterSeal(t *testing.T) {
	st := openTestStore(t, false)
	w := st.Writer()
	if err := w.Seal(); err != nil || st.NumSegments() != 0 {
		t.Fatalf("empty seal must be a no-op (err %v, %d segs)", err, st.NumSegments())
	}
	w.Append(testRows()...)
	if w.Buffered() != 4 {
		t.Fatalf("buffered %d", w.Buffered())
	}
	if err := w.Seal(); err != nil {
		t.Fatal(err)
	}
	if st.NumSegments() != 1 || w.Buffered() != 0 {
		t.Fatalf("seal: %d segs, %d buffered", st.NumSegments(), w.Buffered())
	}
}

func TestVerifyMetrics(t *testing.T) {
	if err := VerifyMetrics(); err != nil {
		t.Fatal(err)
	}
}

package segstore

import (
	"context"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ivnt/internal/colcodec"
	"ivnt/internal/engine"
	"ivnt/internal/relation"
	"ivnt/internal/telemetry"
)

// aggSchema is the footer-answer test relation: a string key, an int
// column and a float column (cells carry their own kinds, so "x" also
// holds the mixed and hostile cases).
func aggSchema() relation.Schema {
	return relation.NewSchema(
		relation.Column{Name: "k", Kind: relation.KindString},
		relation.Column{Name: "n", Kind: relation.KindInt},
		relation.Column{Name: "x", Kind: relation.KindFloat},
	)
}

// kxRows builds rows (k, n=1, x) for the given x cells.
func kxRows(k string, xs ...relation.Value) []relation.Row {
	rows := make([]relation.Row, len(xs))
	for i, x := range xs {
		rows[i] = relation.Row{relation.Str(k), relation.Int(1), x}
	}
	return rows
}

// minMaxCount is the e2ebench agg statement's aggregate list over col.
func minMaxCount(col string) []engine.AggSpec {
	return []engine.AggSpec{
		{Fn: engine.AggCount, As: "n_rows"},
		{Fn: engine.AggMin, Col: col, As: "lo"},
		{Fn: engine.AggMax, Col: col, As: "hi"},
	}
}

// sealOne seals rows as the only segment of a fresh store and returns
// it with that segment's footer.
func sealOne(t *testing.T, rows []relation.Row) (*Store, *footer) {
	t.Helper()
	st, err := Open(t.TempDir(), aggSchema(), Options{Encodings: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendSegment(rows); err != nil {
		t.Fatal(err)
	}
	foot, err := st.loadFooter(st.SegmentPaths()[0])
	if err != nil {
		t.Fatal(err)
	}
	return st, foot
}

// scannedCols is what the query compiler projects for an aggregate:
// the group keys and aggregated columns, in schema order.
func scannedCols(groupBy []string, aggs []engine.AggSpec) []string {
	need := map[string]bool{}
	for _, g := range groupBy {
		need[g] = true
	}
	for _, a := range aggs {
		need[a.Col] = true
	}
	var cols []string
	for _, c := range aggSchema().Cols {
		if need[c.Name] {
			cols = append(cols, c.Name)
		}
	}
	return cols
}

// decodedPartial decodes cols of the store and runs the engine's
// PartialAgg over them: the rows a footer answer must reproduce bit for
// bit. It also returns the decoded rows' footprint.
func decodedPartial(t *testing.T, st *Store, cols, groupBy []string, aggs []engine.AggSpec) ([]relation.Row, int64) {
	t.Helper()
	rel, err := st.Scan(context.Background(), engine.Pushdown{Cols: cols})
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := engine.NewLocal(1).RunStage(context.Background(), rel, []engine.OpDesc{engine.PartialAgg(groupBy, aggs)})
	if err != nil {
		t.Fatal(err)
	}
	return out.Rows(), engine.RowsFootprint(rel.Rows())
}

func TestFooterAnswerMatchesPartialAgg(t *testing.T) {
	f, i, s, null := relation.Float, relation.Int, relation.Str, relation.Null()
	negZero := math.Copysign(0, -1)
	cases := []struct {
		name    string
		rows    []relation.Row
		groupBy []string
		aggs    []engine.AggSpec
		answers bool
	}{
		{"floats", kxRows("a", f(2.5), f(-1), f(7), f(-1)), []string{"k"}, minMaxCount("x"), true},
		{"plus-zero-first", kxRows("a", f(0), f(negZero)), []string{"k"}, minMaxCount("x"), true},
		{"minus-zero-first", kxRows("a", f(negZero), f(0)), []string{"k"}, minMaxCount("x"), true},
		{"zero-min-ties", kxRows("a", f(2), f(0), f(negZero), f(0)), []string{"k"}, minMaxCount("x"), true},
		{"zero-max-ties", kxRows("a", f(-2), f(negZero), f(0), f(negZero)), []string{"k"}, minMaxCount("x"), true},
		{"infinities", kxRows("a", f(math.Inf(1)), f(1), f(math.Inf(-1))), []string{"k"}, minMaxCount("x"), true},
		{"nulls", kxRows("a", null, f(1.5), null, f(-4)), []string{"k"}, minMaxCount("x"), true},
		{"all-null", kxRows("a", null, null), []string{"k"}, minMaxCount("x"), true},
		{"ints", kxRows("a", i(5), i(-2), i(7), null), []string{"k"}, minMaxCount("x"), true},
		{"count-only", kxRows("a", f(math.NaN()), s("z")), []string{"k"}, []engine.AggSpec{{Fn: engine.AggCount, As: "c"}}, true},
		{"int-key", kxRows("a", f(1), f(2)), []string{"n"}, minMaxCount("x"), true},
		{"two-keys", kxRows("a", f(1), f(2)), []string{"k", "n"}, minMaxCount("x"), true},
		{"nan", kxRows("a", f(1), f(math.NaN()), f(3)), []string{"k"}, minMaxCount("x"), false},
		{"nan-first", kxRows("a", f(math.NaN()), f(1)), []string{"k"}, minMaxCount("x"), false},
		{"mixed-int-float", kxRows("a", i(1), f(1), f(2)), []string{"k"}, minMaxCount("x"), false},
		{"numeric-string", kxRows("a", f(1), s("0.5")), []string{"k"}, minMaxCount("x"), false},
		{"bool-cell", kxRows("a", f(1), relation.Bool(true)), []string{"k"}, minMaxCount("x"), false},
		{"int-beyond-2^53", kxRows("a", i(1<<53), i(1)), []string{"k"}, minMaxCount("x"), false},
		{"float-key", kxRows("a", f(0), f(negZero)), []string{"x"}, []engine.AggSpec{{Fn: engine.AggCount, As: "c"}}, false},
		{"two-key-values", append(kxRows("a", f(1)), kxRows("b", f(2))...), []string{"k"}, minMaxCount("x"), false},
		{"null-key", []relation.Row{{null, i(1), f(1)}}, []string{"k"}, minMaxCount("x"), false},
		{"sum", kxRows("a", f(1)), []string{"k"}, []engine.AggSpec{{Fn: engine.AggSum, Col: "x", As: "s"}}, false},
		{"mean", kxRows("a", f(1)), []string{"k"}, []engine.AggSpec{{Fn: engine.AggMean, Col: "x", As: "m"}}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st, foot := sealOne(t, c.rows)
			cols := scannedCols(c.groupBy, c.aggs)
			row, payload, ok := footerPartial(foot, cols, c.groupBy, c.aggs)
			if ok != c.answers {
				t.Fatalf("answered = %v, want %v (zone x %+v)", ok, c.answers, foot.col("x").zone)
			}
			if !ok {
				return
			}
			want, size := decodedPartial(t, st, cols, c.groupBy, c.aggs)
			if len(want) != 1 || !rowsEq(want, []relation.Row{row}) {
				t.Fatalf("footer answer %v, decoded partial %v", row, want)
			}
			if fixed := int64(len(c.rows) * (24 + 64*len(cols))); fixed+payload != size {
				t.Fatalf("footer sizes the rows at %d+%d bytes, decoded footprint is %d", fixed, payload, size)
			}
		})
	}
}

// TestAnswerSegmentsOnlyWithoutFilters: a pushed filter may drop rows
// the footer counts, so no segment answers under one.
func TestAnswerSegmentsOnlyWithoutFilters(t *testing.T) {
	st, _ := sealOne(t, kxRows("a", relation.Float(1), relation.Float(2)))
	aggs := minMaxCount("x")
	refs, err := st.AnswerSegments(engine.Pushdown{}, []string{"k"}, aggs)
	if err != nil || len(refs) != 1 || refs[0].Answer == nil {
		t.Fatalf("unfiltered: refs %+v, err %v", refs, err)
	}
	refs, err = st.AnswerSegments(engine.Pushdown{Filters: []string{"x > 1"}}, []string{"k"}, aggs)
	if err != nil || len(refs) != 1 || refs[0].Answer != nil {
		t.Fatalf("filtered: refs %+v, err %v", refs, err)
	}
}

// TestKindFlagsRejectedByParser: each hostile kind-bit shape fails in
// parseColMeta's kind-flag checks, not somewhere incidental.
func TestKindFlagsRejectedByParser(t *testing.T) {
	chunk := oneFloatColumn(t)
	for name, body := range kindFlagFooters(chunk) {
		_, err := parseFooter(body, int64(headerLen+len(chunk)))
		if err == nil || !strings.Contains(err.Error(), "flags") {
			t.Errorf("%s: got %v, want a zone-flags rejection", name, err)
		}
	}
}

// downgradeTo rewrites a sealed segment file in the unpaged layout of
// format version ver (1 or 2): one colcodec chunk per column, encoded
// under opts, and a footer without a page index; v1 also drops the
// zone kind bits, which it predates. The rows stay bit for bit.
func downgradeTo(t *testing.T, path string, ver byte, opts colcodec.Options) {
	t.Helper()
	g, err := OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	s, rows, err := g.ReadColumns(nil)
	g.Close()
	if err != nil {
		t.Fatal(err)
	}
	foot := &footer{version: ver, rows: len(rows), cols: make([]colMeta, s.Len())}
	out := append(append([]byte{}, headerMagic[:]...), ver)
	for ci, c := range s.Cols {
		chunk, err := colcodec.EncodeColumn(rows, ci, opts)
		if err != nil {
			t.Fatal(err)
		}
		z := zoneOf(rows, ci)
		if ver < 2 {
			z.FloatsOnly, z.IntsOnly = false, false
		}
		foot.cols[ci] = colMeta{name: c.Name, kind: c.Kind, off: int64(len(out)), size: int64(len(chunk)), zone: z}
		out = append(out, chunk...)
	}
	fb := encodeFooter(foot)
	out = append(out, fb...)
	out = appendLE32(out, uint32(len(fb)))
	out = appendLE32(out, crc32.ChecksumIEEE(fb))
	out = append(out, trailerMagic[:]...)
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// keyedStore seals one segment per key ("a", "b", "c"), each holding
// float x cells, the layout extract and e2ebench seal.
func keyedStore(t *testing.T, dir string) *Store {
	t.Helper()
	st, err := Open(dir, aggSchema(), Options{Compress: true, Encodings: true})
	if err != nil {
		t.Fatal(err)
	}
	for ki, k := range []string{"a", "b", "c"} {
		var xs []relation.Value
		for r := 0; r < 50; r++ {
			xs = append(xs, relation.Float(float64((r*7+ki*3)%23)-11))
		}
		if err := st.AppendSegment(kxRows(k, xs...)); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// cellsBitwise compares two relations' rows in order, floats by bits.
func cellsBitwise(a, b *relation.Relation) bool {
	return a.Schema.Equal(b.Schema) && len(a.Partitions) == len(b.Partitions) && rowsEq(a.Rows(), b.Rows())
}

// baselineAggregate is the path without footer answers: ScanStage, then
// DistributedAggregate.
func baselineAggregate(t *testing.T, exec engine.Executor, st *Store, ops []engine.OpDesc, groupBy []string, aggs []engine.AggSpec, cfg engine.PlanConfig) (*relation.Relation, engine.PlanKind) {
	t.Helper()
	ctx := context.Background()
	rel, _, err := engine.ScanStage(ctx, exec, st, ops)
	if err != nil {
		t.Fatal(err)
	}
	out, pk, _, err := engine.DistributedAggregate(ctx, exec, rel, groupBy, aggs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return out, pk
}

// TestScanAggregateAnswersKeyedStore: on a segment-per-key store every
// segment answers, nothing is decoded, and the result is bitwise the
// decoding path's.
func TestScanAggregateAnswersKeyedStore(t *testing.T) {
	ctx := context.Background()
	local := engine.NewLocal(2)
	st := keyedStore(t, t.TempDir())
	ops := []engine.OpDesc{engine.Project("k", "x")}
	groupBy, aggs := []string{"k"}, minMaxCount("x")
	want, _ := baselineAggregate(t, local, st, ops, groupBy, aggs, engine.PlanConfig{})

	reg := telemetry.Default()
	scanned, answered := reg.CounterValue("segstore_segments_scanned_total"), reg.CounterValue("segstore_segments_answered_total")
	got, pk, stats, err := engine.ScanAggregate(ctx, local, st, ops, groupBy, aggs, engine.PlanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !cellsBitwise(want, got) {
		t.Fatalf("answered result differs:\n  want %v\n  got  %v", want.Rows(), got.Rows())
	}
	if pk != engine.PlanBroadcast || stats.SegmentsAnswered != 3 || stats.RowsIn != 0 {
		t.Fatalf("plan %v, stats %+v; want broadcast with 3 answered segments and no rows read", pk, stats)
	}
	if d := reg.CounterValue("segstore_segments_scanned_total") - scanned; d != 0 {
		t.Fatalf("%d segments decoded, want 0", d)
	}
	if d := reg.CounterValue("segstore_segments_answered_total") - answered; d != 3 {
		t.Fatalf("segments_answered_total advanced by %d, want 3", d)
	}

	// One more segment holding two keys decodes; the others still answer.
	if err := st.AppendSegment(append(kxRows("a", relation.Float(-50)), kxRows("d", relation.Float(9))...)); err != nil {
		t.Fatal(err)
	}
	want, _ = baselineAggregate(t, local, st, ops, groupBy, aggs, engine.PlanConfig{})
	scanned = reg.CounterValue("segstore_segments_scanned_total")
	got, _, stats, err = engine.ScanAggregate(ctx, local, st, ops, groupBy, aggs, engine.PlanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	d := reg.CounterValue("segstore_segments_scanned_total") - scanned
	if !cellsBitwise(want, got) || stats.SegmentsAnswered != 3 || d != 1 {
		t.Fatalf("partly answered: %d segments decoded, stats %+v\n  want %v\n  got  %v", d, stats, want.Rows(), got.Rows())
	}
}

// TestScanAggregateWithoutAnswersKeepsPlan: stores no segment of which
// answers (v1 footers; row-split segments holding several keys) take
// exactly the decoding path, shuffle plan choice included.
func TestScanAggregateWithoutAnswersKeepsPlan(t *testing.T) {
	ctx := context.Background()
	local := engine.NewLocal(2)
	ops := []engine.OpDesc{engine.Project("k", "x")}
	groupBy, aggs := []string{"k"}, minMaxCount("x")

	v1Dir := t.TempDir()
	keyedStore(t, v1Dir)
	matches, _ := filepath.Glob(filepath.Join(v1Dir, "seg-*.ivsg"))
	for _, p := range matches {
		downgradeTo(t, p, 1, colcodec.Options{Compress: true, Encodings: true})
	}
	v1, err := Open(v1Dir, relation.Schema{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rowSplit, err := Open(t.TempDir(), aggSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 3; s++ {
		rows := append(kxRows("a", relation.Float(float64(s))), kxRows("b", relation.Float(float64(-s)))...)
		if err := rowSplit.AppendSegment(rows); err != nil {
			t.Fatal(err)
		}
	}

	for name, st := range map[string]*Store{"v1-footers": v1, "row-split": rowSplit} {
		for _, cfg := range []engine.PlanConfig{{}, {BroadcastThreshold: 1}} {
			want, wantPK := baselineAggregate(t, local, st, ops, groupBy, aggs, cfg)
			got, pk, stats, err := engine.ScanAggregate(ctx, local, st, ops, groupBy, aggs, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if pk != wantPK || stats.SegmentsAnswered != 0 || !cellsBitwise(want, got) {
				t.Fatalf("%s threshold %d: plan %v (want %v), %d answered\n  want %v\n  got  %v",
					name, cfg.BroadcastThreshold, pk, wantPK, stats.SegmentsAnswered, want.Rows(), got.Rows())
			}
		}
	}
}

// TestV2SegmentsReadPruneAndAnswer: unpaged v2 segments, as stores
// sealed before the page index hold them, still answer aggregates from
// their footers, prune whole segments, and read as one page.
func TestV2SegmentsReadPruneAndAnswer(t *testing.T) {
	ctx := context.Background()
	local := engine.NewLocal(2)
	dir := t.TempDir()
	keyedStore(t, dir)
	want, err := Open(dir, relation.Schema{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantRows, err := want.Scan(ctx, engine.Pushdown{})
	if err != nil {
		t.Fatal(err)
	}
	matches, _ := filepath.Glob(filepath.Join(dir, "seg-*.ivsg"))
	for _, p := range matches {
		downgradeTo(t, p, 2, colcodec.Options{Compress: true, Encodings: true})
	}
	st, err := Open(dir, relation.Schema{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.Scan(ctx, engine.Pushdown{})
	if err != nil || !cellsBitwise(wantRows, got) {
		t.Fatalf("v2 rows differ from the v3 store's (err %v)", err)
	}
	ops := []engine.OpDesc{engine.Project("k", "x")}
	groupBy, aggs := []string{"k"}, minMaxCount("x")
	wantAgg, _ := baselineAggregate(t, local, st, ops, groupBy, aggs, engine.PlanConfig{})
	gotAgg, _, stats, err := engine.ScanAggregate(ctx, local, st, ops, groupBy, aggs, engine.PlanConfig{})
	if err != nil || !cellsBitwise(wantAgg, gotAgg) || stats.SegmentsAnswered != 3 {
		t.Fatalf("v2 aggregate: %d answered (want 3), err %v", stats.SegmentsAnswered, err)
	}
	refs, err := st.Segments(engine.Pushdown{Filters: []string{`k == "b"`}})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range refs {
		if r.Pruned != (i != 1) || r.Ranges != nil || r.Pages != 1 {
			t.Fatalf("segment %d: %+v, want pruned except \"b\", one page, no ranges", i, r)
		}
	}
}

// TestScanAggregateKeepsPlanChoice: footer answers never change the
// plan the decoding path picks. The footers size the rows they answer
// exactly, so at every broadcast threshold around the input footprint
// ScanAggregate takes the same plan and returns the same bits. The
// store holds an empty-string key and a null key in separate segments:
// they form one group under the broadcast merge and two under the
// shuffle plan, so a changed plan would show in the result too.
func TestScanAggregateKeepsPlanChoice(t *testing.T) {
	ctx := context.Background()
	local := engine.NewLocal(2)
	st := keyedStore(t, t.TempDir())
	extra := [][]relation.Row{
		kxRows("", relation.Float(3), relation.Float(-3)),
		{{relation.Null(), relation.Int(1), relation.Float(8)}, {relation.Null(), relation.Int(1), relation.Float(-8)}},
		append(kxRows("a", relation.Float(-50)), kxRows("d", relation.Float(9))...),
	}
	for _, rows := range extra {
		if err := st.AppendSegment(rows); err != nil {
			t.Fatal(err)
		}
	}
	ops := []engine.OpDesc{engine.Project("k", "x")}
	groupBy, aggs := []string{"k"}, minMaxCount("x")

	rel, _, err := engine.ScanStage(ctx, local, st, ops)
	if err != nil {
		t.Fatal(err)
	}
	total := engine.RowsFootprint(rel.Rows())
	var decoded int64 // the two segments no footer answers
	for _, part := range rel.Partitions[4:] {
		decoded += engine.RowsFootprint(part)
	}
	for _, th := range []int64{0, 1, total - decoded - 1, total - decoded, total - 1, total, total + 1} {
		cfg := engine.PlanConfig{BroadcastThreshold: th}
		want, wantPK := baselineAggregate(t, local, st, ops, groupBy, aggs, cfg)
		got, pk, stats, err := engine.ScanAggregate(ctx, local, st, ops, groupBy, aggs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantAnswered := 4
		if wantPK == engine.PlanShuffle {
			wantAnswered = 0
		}
		if pk != wantPK || stats.SegmentsAnswered != wantAnswered || !cellsBitwise(want, got) {
			t.Fatalf("threshold %d (footprint %d): plan %v (want %v), %d answered (want %d)\n  want %v\n  got  %v",
				th, total, pk, wantPK, stats.SegmentsAnswered, wantAnswered, want.Rows(), got.Rows())
		}
	}
}

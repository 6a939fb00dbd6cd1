package segstore

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"ivnt/internal/colcodec"
	"ivnt/internal/engine"
	"ivnt/internal/gen"
	"ivnt/internal/interp"
	"ivnt/internal/reduce"
	"ivnt/internal/relation"
)

// bytes returns the whole segment file image.
func (img *segmentImage) bytes() []byte {
	b := append([]byte{}, img.header...)
	b = append(b, img.chunks...)
	return append(b, img.tail...)
}

// zoneOf is the reference definition of a column's zone map over rows:
// the plain loop the seal's one-pass accumulator (zoneAcc, its repeat
// path, and the page-by-page merge) must reproduce exactly.
func zoneOf(rows []relation.Row, ci int) ZoneMap {
	var z ZoneMap
	floats := 0
	for _, r := range rows {
		v := r[ci]
		if v.K == relation.KindNull {
			z.Nulls++
			continue
		}
		if v.K == relation.KindInt || v.K == relation.KindFloat {
			z.NumKind++
			if v.K == relation.KindFloat {
				floats++
			}
		}
		if v.K == relation.KindString {
			z.Strs++
			if !z.SHas || v.S < z.SMin {
				z.SMin = v.S
			}
			if !z.SHas || v.S > z.SMax {
				z.SMax = v.S
			}
			z.SHas = true
		}
		if v.IsNumeric() {
			z.NumOrd++
			f := v.AsFloat()
			if math.IsNaN(f) {
				z.NaNs++
				continue
			}
			if !z.FHas || f < z.FMin {
				z.FMin = f
			}
			if !z.FHas || f > z.FMax {
				z.FMax = f
			}
			z.FHas = true
		}
	}
	z.FloatsOnly = z.NumKind > 0 && floats == z.NumKind
	z.IntsOnly = z.NumKind > 0 && floats == 0
	return z
}

// zoneBitsEqual compares zone maps with float bounds by bit pattern
// (-0 and +0 differ, as they do for footer answers).
func zoneBitsEqual(a, b ZoneMap) bool {
	fa, fb := a, b
	fa.FMin, fa.FMax, fb.FMin, fb.FMax = 0, 0, 0, 0
	return fa == fb && math.Float64bits(a.FMin) == math.Float64bits(b.FMin) &&
		math.Float64bits(a.FMax) == math.Float64bits(b.FMax)
}

// pagedRows builds n rows over testSchema shaped like reduced signals:
// ts ascending, val piecewise-constant with NaN, -0/+0 and null cells,
// sid mostly one string with numeric strings mixed in. Run lengths and
// values come from the seed.
func pagedRows(n int, seed int64) []relation.Row {
	rng := rand.New(rand.NewSource(seed))
	vals := []relation.Value{
		relation.Float(1.5), relation.Float(math.NaN()), relation.Float(math.Copysign(0, -1)),
		relation.Float(0), relation.Null(), relation.Float(-3.25), relation.Int(7),
	}
	sids := []relation.Value{relation.Str("SYN.num00"), relation.Str("42"), relation.Str("a"), relation.Null()}
	rows := make([]relation.Row, n)
	v, s := vals[0], sids[0]
	for i := range rows {
		if rng.Intn(40) == 0 {
			v = vals[rng.Intn(len(vals))]
		}
		if rng.Intn(200) == 0 {
			s = sids[rng.Intn(len(sids))]
		}
		rows[i] = relation.Row{relation.Int(int64(10 * i)), v, s}
	}
	return rows
}

// TestColumnPassMatchesZoneOf pins the one-pass statistics to the plain
// definition: every page zone is zoneOf over the page's rows and the
// segment zone is zoneOf over all of them, bit for bit.
func TestColumnPassMatchesZoneOf(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		n := 1 + rand.New(rand.NewSource(seed)).Intn(3*PageRows)
		rows := pagedRows(n, seed)
		for ci := range testSchema().Cols {
			for _, pr := range []int{1, 7, PageRows, n} {
				zones := make([]ZoneMap, (n+pr-1)/pr)
				cs := scanColumn(rows, ci, pr, zones)
				if want := zoneOf(rows, ci); !zoneBitsEqual(cs.zone, want) {
					t.Fatalf("seed %d col %d pages of %d: segment zone %+v, want %+v", seed, ci, pr, cs.zone, want)
				}
				for p, z := range zones {
					if want := zoneOf(rows[p*pr:min((p+1)*pr, n)], ci); !zoneBitsEqual(z, want) {
						t.Fatalf("seed %d col %d page %d of %d rows: zone %+v, want %+v", seed, ci, p, pr, z, want)
					}
				}
			}
		}
	}
}

// TestPagedSegmentRoundTrip reads multi-page segments back under every
// codec option, whole and by page-aligned ranges, and rejects ranges
// that split a page.
func TestPagedSegmentRoundTrip(t *testing.T) {
	rows := pagedRows(3*PageRows+17, 3)
	for _, opts := range []colcodec.Options{{}, {Encodings: true}, {Compress: true}, {Compress: true, Encodings: true}} {
		t.Run(fmt.Sprintf("%+v", opts), func(t *testing.T) {
			img, err := encodeSegment(testSchema(), rows, opts)
			if err != nil {
				t.Fatal(err)
			}
			data := img.bytes()
			g, err := OpenSegmentReaderAt(bytes.NewReader(data), int64(len(data)))
			if err != nil {
				t.Fatal(err)
			}
			if len(g.foot.pages) != 4 {
				t.Fatalf("%d pages, want 4", len(g.foot.pages))
			}
			_, got, err := g.ReadColumns(nil)
			if err != nil || !rowsEq(got, rows) {
				t.Fatalf("full read differs (err %v)", err)
			}
			ranges := []engine.RowRange{{Lo: PageRows, Hi: 2 * PageRows}, {Lo: 3 * PageRows, Hi: len(rows)}}
			_, got, err = g.ReadRanges([]string{"sid", "ts"}, ranges)
			if err != nil {
				t.Fatal(err)
			}
			var want []relation.Row
			for _, r := range ranges {
				for _, row := range rows[r.Lo:r.Hi] {
					want = append(want, relation.Row{row[2], row[0]})
				}
			}
			if !rowsEq(got, want) {
				t.Fatalf("ranged read differs")
			}
			if _, _, err := g.ReadRanges(nil, []engine.RowRange{}); err != nil {
				t.Fatalf("empty selection: %v", err)
			}
			for _, bad := range [][]engine.RowRange{
				{{Lo: 1, Hi: PageRows}},
				{{Lo: 0, Hi: PageRows + 1}},
				{{Lo: PageRows, Hi: 2 * PageRows}, {Lo: 0, Hi: PageRows}},
				{{Lo: 0, Hi: len(rows) + 1}},
			} {
				if _, _, err := g.ReadRanges(nil, bad); err == nil {
					t.Fatalf("ranges %v accepted", bad)
				}
			}
		})
	}
}

// TestPageSelectionScan seals run-shaped multi-page segments and checks
// that a filtered scan reads only the pages its zones may match, with
// the same rows surviving the filter as a full scan.
func TestPageSelectionScan(t *testing.T) {
	ctx := context.Background()
	st := openTestStore(t, true)
	rows := pagedRows(4*PageRows, 5)
	if err := st.AppendSegment(rows); err != nil {
		t.Fatal(err)
	}
	lo := rows[PageRows+3][0].I
	hi := rows[2*PageRows+5][0].I
	ops := []engine.OpDesc{engine.Filter(fmt.Sprintf("ts >= %d && ts < %d", lo, hi))}
	refs, err := st.Segments(engine.Pushdown{Filters: []string{ops[0].Expr}})
	if err != nil {
		t.Fatal(err)
	}
	want := []engine.RowRange{{Lo: PageRows, Hi: 3 * PageRows}}
	if r := refs[0]; r.Pruned || fmt.Sprint(r.Ranges) != fmt.Sprint(want) || r.Pages != 4 || r.PagesPruned != 2 {
		t.Fatalf("ref = %+v, want ranges %v with 2 of 4 pages pruned", r, want)
	}
	local := engine.NewLocal(2)
	got, stats, err := engine.ScanStage(ctx, local, st, ops)
	if err != nil {
		t.Fatal(err)
	}
	full, err := st.Scan(ctx, engine.Pushdown{})
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := local.RunStage(ctx, full, ops)
	if err != nil {
		t.Fatal(err)
	}
	if !rowsEq(got.Rows(), ref.Rows()) || got.NumRows() != int(hi-lo)/10 {
		t.Fatalf("paged scan: %d rows, full scan %d", got.NumRows(), ref.NumRows())
	}
	if stats.RowsIn != 2*PageRows || stats.PagesScanned != 2 || stats.PagesPruned != 2 {
		t.Fatalf("stats rows_in=%d pages scanned=%d pruned=%d, want %d/2/2", stats.RowsIn, stats.PagesScanned, stats.PagesPruned, 2*PageRows)
	}
	// A window between two rows prunes every page: the segment is read
	// as an empty partition but is not counted as pruned.
	refs, err = st.Segments(engine.Pushdown{Filters: []string{fmt.Sprintf("ts > %d && ts < %d", 10*(PageRows-1), 10*PageRows)}})
	if err != nil {
		t.Fatal(err)
	}
	if r := refs[0]; r.Pruned || !r.Skip() || r.ReadRows() != 0 || r.PagesPruned != 4 {
		t.Fatalf("gap window: ref = %+v", r)
	}
}

// pagedFooter returns a valid two-column, three-page v3 segment's
// chunks and parsed footer, for the malicious shapes to edit.
func pagedFooter(t testing.TB) ([]byte, *footer) {
	t.Helper()
	rows := pagedRows(2*PageRows+9, 11)
	s := relation.NewSchema(relation.Column{Name: "ts", Kind: relation.KindInt}, relation.Column{Name: "val", Kind: relation.KindFloat})
	for i, r := range rows {
		rows[i] = r[:2]
	}
	img, err := encodeSegment(s, rows, colcodec.Options{Encodings: true, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	data := img.bytes()
	g, err := OpenSegmentReaderAt(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	return img.chunks, g.foot
}

// maliciousPageSegments are v3 segments whose page index lies, with a
// correct CRC so each reaches the page-index parser.
func maliciousPageSegments(t testing.TB) map[string][]byte {
	t.Helper()
	shapes := map[string]func(f *footer){
		// Page 1's ts bytes start inside page 0's.
		"v3-overlapping-pages": func(f *footer) {
			f.pages[1].cols[0].off--
			f.pages[1].cols[0].size++
		},
		// Page rows sum past the segment's.
		"v3-page-rows-do-not-sum": func(f *footer) { f.pages[2].rows++ },
		// Pages 0 and 1 of val swap byte ranges.
		"v3-page-offsets-out-of-order": func(f *footer) {
			a, b := &f.pages[0].cols[1], &f.pages[1].cols[1]
			a.off, b.off = b.off, a.off
			a.size, b.size = b.size, a.size
		},
		// Page 0's ts zone reaches past the segment zone.
		"v3-page-zone-outside-segment": func(f *footer) {
			f.pages[0].cols[0].zone.FMax = f.cols[0].zone.FMax + 1
		},
	}
	out := map[string][]byte{}
	for name, edit := range shapes {
		chunks, f := pagedFooter(t)
		edit(f)
		out[name] = assemble(chunks, encodeFooter(f))
	}
	out["v3-page-count-overflow"] = pageCountOverflow(t)
	return out
}

// pageCountOverflow is a footer of a few dozen bytes claiming maxRows
// rows of one all-null column in maxRows pages, to bait an allocation
// sized by the page count before any page entry is read.
func pageCountOverflow(t testing.TB) []byte {
	chunk := oneFloatColumn(t)
	w := newByteWriter()
	w.byte(3)
	w.uvarint(maxRows) // rows
	w.uvarint(1)       // cols
	w.str("v")
	w.byte(byte(relation.KindFloat))
	w.uvarint(uint64(headerLen))
	w.uvarint(uint64(len(chunk)))
	w.uvarint(maxRows) // nulls
	for i := 0; i < 4; i++ {
		w.uvarint(0) // numkind, numord, nans, strs
	}
	w.byte(0)          // zone flags
	w.uvarint(0)       // dictionary bytes
	w.uvarint(maxRows) // pages
	for i := 0; i < 9; i++ {
		w.uvarint(1) // the start of a page entry
	}
	return assemble(chunk, w.bytes())
}

func TestMaliciousPageFootersRejected(t *testing.T) {
	for name, data := range maliciousPageSegments(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := OpenSegmentReaderAt(bytes.NewReader(data), int64(len(data))); err == nil {
				t.Fatalf("%s accepted", name)
			}
		})
	}
	// The page count is rejected before it sizes an allocation.
	data := pageCountOverflow(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := OpenSegmentReaderAt(bytes.NewReader(data), int64(len(data))); err == nil {
		t.Fatal("page count overflow accepted")
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Fatalf("rejecting a %d-byte segment allocated %d bytes", len(data), n)
	}
	// The unedited footer re-encodes to an accepted segment, so each
	// rejection above is the edit's.
	chunks, f := pagedFooter(t)
	data = assemble(chunks, encodeFooter(f))
	if _, err := OpenSegmentReaderAt(bytes.NewReader(data), int64(len(data))); err != nil {
		t.Fatalf("unedited footer rejected: %v", err)
	}
}

// synJourney returns one SYN journey's reduced signals (50 000 trace
// examples, the e2ebench fleet-syn journey size), one row set per
// signal, in signal order.
func synJourney(tb testing.TB) (relation.Schema, [][]relation.Row) {
	tb.Helper()
	ctx := context.Background()
	d := gen.Build(gen.SYN)
	cfg := d.DefaultConfig()
	exec := engine.NewLocal(0)
	ucomb, err := d.Catalog.Select(cfg.SIDs...)
	if err != nil {
		tb.Fatal(err)
	}
	kb := d.Generate(50_000).ToRelation(4)
	ks, _, err := interp.Extract(ctx, exec, kb, ucomb, interp.Options{Preselect: true})
	if err != nil {
		tb.Fatal(err)
	}
	reduced, err := reduce.Run(ctx, exec, ks, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	sort.Slice(reduced, func(i, j int) bool { return reduced[i].SID < reduced[j].SID })
	var sigs [][]relation.Row
	var schema relation.Schema
	for _, r := range reduced {
		if r.Rel.NumRows() > 0 {
			schema = r.Rel.Schema
			sigs = append(sigs, r.Rel.Rows())
		}
	}
	return schema, sigs
}

// BenchmarkEncodeSegment seals one SYN journey's reduced signals
// through encodeSegment with the e2ebench store options (DEFLATE and
// encodings on), no file I/O, and reports ns/row and allocs/row.
func BenchmarkEncodeSegment(b *testing.B) {
	schema, sigs := synJourney(b)
	rows := 0
	for _, s := range sigs {
		rows += len(s)
	}
	opts := colcodec.Options{Compress: true, Encodings: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range sigs {
			if _, err := encodeSegment(schema, s, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
	b.ReportMetric(float64(testing.AllocsPerRun(1, func() {
		for _, s := range sigs {
			_, _ = encodeSegment(schema, s, opts)
		}
	}))/float64(rows), "allocs/row")
	b.ReportMetric(float64(rows), "rows")
}

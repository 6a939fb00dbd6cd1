package segstore

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ivnt/internal/engine"
	"ivnt/internal/relation"
)

func dictSchema() relation.Schema {
	return relation.NewSchema(
		relation.Column{Name: "ts", Kind: relation.KindInt},
		relation.Column{Name: "val", Kind: relation.KindFloat},
		relation.Column{Name: "sid", Kind: relation.KindString},
		relation.Column{Name: "raw", Kind: relation.KindBytes},
	)
}

// dictRows builds n rows over dictSchema whose val, sid and raw cells
// are drawn at random from a few values each, so the writer picks
// dictionary encoding for those columns (runs are too short for RLE).
// The seed varies the value sets, so segments hold different
// dictionaries.
func dictRows(n int, seed int64) []relation.Row {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]relation.Row, n)
	for i := range rows {
		k := rng.Intn(6)
		rows[i] = relation.Row{
			relation.Int(int64(10 * i)),
			relation.Float(float64(seed) + float64(k)/4),
			relation.Str(fmt.Sprintf("s%d.%d", seed, rng.Intn(5))),
			relation.Bytes([]byte{byte(seed), byte(k), 0xAB}),
		}
	}
	return rows
}

// dictStore seals nseg multi-page segments of dictRows under DEFLATE and
// encodings and returns the store.
func dictStore(t testing.TB, nseg int) *Store {
	t.Helper()
	st, err := Open(t.TempDir(), dictSchema(), Options{Compress: true, Encodings: true})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < nseg; s++ {
		if err := st.AppendSegment(dictRows(2*PageRows+PageRows/2, int64(s+1))); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// dictChunks counts the dictionary chunks among the store's segments.
func dictChunks(t *testing.T, st *Store) int {
	t.Helper()
	n := 0
	for _, path := range st.SegmentPaths() {
		e, err := st.entry(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range e.foot.cols {
			if c.dict > 0 {
				n++
			}
		}
	}
	return n
}

// checkScanMatchesFiles scans st under pd and requires every partition
// to equal ReadSegmentRows of its segment over the same ranges.
func checkScanMatchesFiles(t *testing.T, st *Store, pd engine.Pushdown) {
	t.Helper()
	rel, err := st.Scan(context.Background(), pd)
	if err != nil {
		t.Fatal(err)
	}
	refs, err := st.Segments(pd)
	if err != nil {
		t.Fatal(err)
	}
	for i, ref := range refs {
		if ref.Skip() {
			continue
		}
		_, want, err := ReadSegmentRows(ref.Path, ref.Cols, ref.Ranges)
		if err != nil {
			t.Fatal(err)
		}
		if !rowsEq(rel.Partitions[i], want) {
			t.Fatalf("%+v: partition %d differs from ReadSegmentRows", pd, i)
		}
	}
}

// A store scanned twice decodes each dictionary once: the first scan
// misses on every dictionary chunk, the second hits on every one, and
// both equal the segment files read directly, whole and by page range.
func TestStoreScanDecodesDictionariesOnce(t *testing.T) {
	st := dictStore(t, 3)
	dicts := dictChunks(t, st)
	if dicts < 3*3 {
		t.Fatalf("%d dictionary chunks in 3 segments, want val, sid and raw dictionary-encoded in each", dicts)
	}
	var decoded [2]int64
	for pass, want := range []struct{ hits, misses int64 }{{0, int64(dicts)}, {int64(dicts), 0}} {
		hits, misses, bytes := mDictHits.Value(), mDictMisses.Value(), mBytesDecoded.Value()
		checkScanMatchesFiles(t, st, engine.Pushdown{})
		if h, m := mDictHits.Value()-hits, mDictMisses.Value()-misses; h != want.hits || m != want.misses {
			t.Fatalf("scan %d: %d hits, %d misses; want %d and %d", pass, h, m, want.hits, want.misses)
		}
		decoded[pass] = mBytesDecoded.Value() - bytes
	}
	if d := decoded[0] - decoded[1]; d != dictBytes(t, st) {
		t.Fatalf("the warm scan decoded %d fewer bytes than the cold one, the dictionaries hold %d", d, dictBytes(t, st))
	}
	pd := engine.Pushdown{Filters: []string{fmt.Sprintf("ts >= %d && ts < %d", 10*(PageRows+1), 10*(PageRows+9))}, Cols: []string{"sid", "val", "raw"}}
	misses := mDictMisses.Value()
	checkScanMatchesFiles(t, st, pd)
	checkScanMatchesFiles(t, st, pd)
	if m := mDictMisses.Value() - misses; m != 0 {
		t.Fatalf("ranged scans of a warm store missed %d dictionaries", m)
	}
}

// dictBytes is the total size of the store's dictionary payloads.
func dictBytes(t *testing.T, st *Store) int64 {
	t.Helper()
	var n int64
	for _, path := range st.SegmentPaths() {
		e, err := st.entry(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range e.foot.cols {
			n += c.dict
		}
	}
	return n
}

// Mutating a byte cell a scan returned does not reach the cached
// dictionary it came from.
func TestDictCacheNotAliased(t *testing.T) {
	st := dictStore(t, 1)
	ctx := context.Background()
	rel, err := st.Scan(ctx, engine.Pushdown{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rel.Partitions[0] {
		r[3].B[0] ^= 0xFF
	}
	checkScanMatchesFiles(t, st, engine.Pushdown{})
}

// A budget smaller than one dictionary evicts every dictionary as soon
// as it is decoded, and a budget of about two keeps at most that much;
// every scan stays correct either way.
func TestDictCacheEvictsToBudget(t *testing.T) {
	st := dictStore(t, 3)
	dicts := int64(dictChunks(t, st))
	st.dicts.budget = 1
	for pass := 0; pass < 2; pass++ {
		hits, misses, evicted := mDictHits.Value(), mDictMisses.Value(), mDictEvictions.Value()
		checkScanMatchesFiles(t, st, engine.Pushdown{})
		if h, m, ev := mDictHits.Value()-hits, mDictMisses.Value()-misses, mDictEvictions.Value()-evicted; h != 0 || m != dicts || ev != dicts {
			t.Fatalf("budget 1, scan %d: %d hits, %d misses, %d evictions; want 0, %d, %d", pass, h, m, ev, dicts, dicts)
		}
		if st.dicts.used != 0 || st.dicts.order.Len() != 0 {
			t.Fatalf("budget 1: %d bytes in %d dictionaries left cached", st.dicts.used, st.dicts.order.Len())
		}
	}

	st.dicts.budget = 2 * dictSize(dictRowsDict(t, st))
	for pass := 0; pass < 2; pass++ {
		evicted := mDictEvictions.Value()
		checkScanMatchesFiles(t, st, engine.Pushdown{})
		if mDictEvictions.Value() == evicted {
			t.Fatalf("budget of two dictionaries, scan %d: nothing evicted", pass)
		}
		if st.dicts.used > st.dicts.budget || st.dicts.order.Len() == 0 {
			t.Fatalf("%d bytes in %d dictionaries cached under a budget of %d", st.dicts.used, st.dicts.order.Len(), st.dicts.budget)
		}
	}
}

// dictRowsDict decodes the first segment's first dictionary chunk.
func dictRowsDict(t *testing.T, st *Store) []relation.Value {
	t.Helper()
	g, err := OpenSegment(st.SegmentPaths()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for ci, c := range g.foot.cols {
		if c.dict > 0 {
			var buf []byte
			dict, _, err := g.dictionary(&buf, ci)
			if err != nil {
				t.Fatal(err)
			}
			return dict
		}
	}
	t.Fatal("no dictionary chunk")
	return nil
}

// A segment whose dictionary does not decode fails every read that
// needs it, not only the first: the failure is never cached.
func TestCorruptDictionaryFailsEveryRead(t *testing.T) {
	st := dictStore(t, 2)
	path := st.SegmentPaths()[1]
	e, err := st.entry(path)
	if err != nil {
		t.Fatal(err)
	}
	var col *colMeta
	for i := range e.foot.cols {
		if e.foot.cols[i].dict > 0 {
			col = &e.foot.cols[i]
			break
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[col.off+2] = 0xFF // the dictionary payload's flags byte
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		misses := mDictMisses.Value()
		_, err := st.Scan(context.Background(), engine.Pushdown{Cols: []string{col.name}})
		if err == nil || !strings.Contains(err.Error(), "dictionary") {
			t.Fatalf("scan %d of a corrupt dictionary: err = %v", i, err)
		}
		if mDictMisses.Value() == misses {
			t.Fatalf("scan %d: the corrupt dictionary was served from the cache", i)
		}
	}
}

// Compact drops the cache entries of the segments it retires; a scan
// of a snapshot taken before the compaction still reads the retired
// files but caches nothing for them.
func TestCompactDropsCacheEntries(t *testing.T) {
	st := dictStore(t, 4)
	ctx := context.Background()
	before, err := st.Segments(engine.Pushdown{})
	if err != nil {
		t.Fatal(err)
	}
	checkScanMatchesFiles(t, st, engine.Pushdown{})
	if got := len(st.CachedSegments()); got != 4 {
		t.Fatalf("%d cache entries after a full scan of 4 segments", got)
	}
	if n, err := st.Compact(CompactOptions{}); err != nil || n != 1 {
		t.Fatalf("compact: %d groups, %v", n, err)
	}
	assertCacheLive(t, st)
	if st.dicts.used != 0 || st.dicts.order.Len() != 0 {
		t.Fatalf("%d dictionaries of retired segments still cached", st.dicts.order.Len())
	}
	old, err := st.Scan(ctx, engine.Pushdown{Segments: before})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.CachedSegments()) != 0 || st.dicts.order.Len() != 0 {
		t.Fatalf("a scan of retired segments cached %v and %d dictionaries", st.CachedSegments(), st.dicts.order.Len())
	}
	cur, err := st.Scan(ctx, engine.Pushdown{})
	if err != nil {
		t.Fatal(err)
	}
	if !rowsEq(old.Rows(), cur.Rows()) {
		t.Fatal("the compacted store scans differently from its pre-compaction snapshot")
	}
	checkScanMatchesFiles(t, st, engine.Pushdown{})
	assertCacheLive(t, st)
}

// assertCacheLive fails when a cache entry names a segment the
// manifest does not.
func assertCacheLive(t *testing.T, st *Store) {
	t.Helper()
	live := map[string]bool{}
	for _, p := range st.SegmentPaths() {
		live[p] = true
	}
	for _, p := range st.CachedSegments() {
		if !live[p] {
			t.Fatalf("cache entry left for retired segment %s", p)
		}
	}
}

// Scans running while segments are appended and compacted always see
// a prefix of the appended rows, bitwise, and the cache never keeps an
// entry for a retired segment (run under -race). Compact deletes the
// files it retires one pass later, so a scan may overlap one
// compaction but not two: each pass waits until every scanner has
// started a scan after the previous one.
func TestConcurrentScanAndCompact(t *testing.T) {
	st, err := Open(t.TempDir(), dictSchema(), Options{Compress: true, Encodings: true})
	if err != nil {
		t.Fatal(err)
	}
	const rounds, perRound, rowsPer = 4, 3, PageRows + 40
	var want []relation.Row
	for s := 0; s < rounds*perRound; s++ {
		rows := dictRows(rowsPer, int64(s+1))
		for i := range rows {
			rows[i][0] = relation.Int(int64(s*rowsPer + i))
		}
		want = append(want, rows...)
	}
	ctx := context.Background()
	done := make(chan struct{})
	errs := make(chan error, 2)
	var passes atomic.Int64     // compactions finished
	var started [2]atomic.Int64 // per scanner: passes finished when its current scan began
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer started[w].Store(math.MaxInt64)
			lo, pd := 0, engine.Pushdown{}
			if w == 1 {
				lo, pd.Filters = rowsPer/2, []string{fmt.Sprintf("ts >= %d", rowsPer/2)}
			}
			for {
				select {
				case <-done:
					return
				default:
				}
				started[w].Store(passes.Load())
				rel, err := st.Scan(ctx, pd)
				if err != nil {
					errs <- err
					return
				}
				// Page selection reads whole pages; drop the rows below lo
				// the filter itself would remove.
				if got := rowsFrom(rel.Rows(), lo); len(got) > 0 && !rowsEq(got, want[lo:lo+len(got)]) {
					errs <- fmt.Errorf("scan %d: %d rows that are not a prefix of the appended rows", w, len(got))
					return
				}
			}
		}(w)
	}
	work := func() error {
		for r := 0; r < rounds; r++ {
			for s := 0; s < perRound; s++ {
				at := (r*perRound + s) * rowsPer
				if err := st.AppendSegment(want[at : at+rowsPer]); err != nil {
					return err
				}
			}
			for w := range started {
				for started[w].Load() < passes.Load() {
					runtime.Gosched()
				}
			}
			if _, err := st.Compact(CompactOptions{TargetRows: 4 * rowsPer}); err != nil {
				return err
			}
			passes.Add(1)
		}
		return nil
	}
	err = work()
	close(done)
	wg.Wait()
	close(errs)
	if err != nil {
		t.Fatal(err)
	}
	for err := range errs {
		t.Fatal(err)
	}
	checkScanMatchesFiles(t, st, engine.Pushdown{})
	assertCacheLive(t, st)
}

// rowsFrom drops the rows whose ts is below lo (the rows a ts >= lo
// filter's page selection read but the filter did not apply).
func rowsFrom(rows []relation.Row, lo int) []relation.Row {
	for i, r := range rows {
		if r[0].I >= int64(lo) {
			return rows[i:]
		}
	}
	return nil
}

// resetCache drops every cache entry of st.
func resetCache(st *Store) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for path := range st.cache {
		st.dropEntryLocked(path)
	}
}

// BenchmarkStoreScanPages reads one page of two columns out of a
// 16-page dictionary-encoded segment through Store.Scan, as a served
// point query does: cold (every iteration re-reads the footer and
// decodes the dictionaries) and warm (both cached).
func BenchmarkStoreScanPages(b *testing.B) {
	st, err := Open(b.TempDir(), dictSchema(), Options{Compress: true, Encodings: true})
	if err != nil {
		b.Fatal(err)
	}
	if err := st.AppendSegment(dictRows(16*PageRows, 1)); err != nil {
		b.Fatal(err)
	}
	lo := 10 * 7 * PageRows
	pd := engine.Pushdown{Filters: []string{fmt.Sprintf("ts >= %d && ts < %d", lo, lo+100)}, Cols: []string{"ts", "val", "sid"}}
	ctx := context.Background()
	for _, warm := range []bool{false, true} {
		name := "cold"
		if warm {
			name = "warm"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !warm {
					resetCache(st)
				}
				rel, err := st.Scan(ctx, pd)
				if err != nil {
					b.Fatal(err)
				}
				if rel.NumRows() != PageRows {
					b.Fatalf("%d rows, want one page", rel.NumRows())
				}
			}
		})
	}
}

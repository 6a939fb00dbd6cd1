package core

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ivnt/internal/engine"
	"ivnt/internal/gen"
	"ivnt/internal/mining/anomaly"
	"ivnt/internal/mining/assoc"
	"ivnt/internal/mining/motif"
	"ivnt/internal/mining/transition"
	"ivnt/internal/query"
	"ivnt/internal/relation"
	"ivnt/internal/rules"
	"ivnt/internal/segstore"
	"ivnt/internal/staterep"
)

// synResult runs SYN with two extension rules whose w_ids ("A.rate",
// "Agap.<sid>") sort before every signal id, so the state's column
// order depends on signals and extensions being merged in that order.
func synResult(t *testing.T) *Result {
	t.Helper()
	d := gen.Build(gen.SYN)
	cfg := d.DefaultConfig()
	sids := d.Catalog.SIDs()
	cfg.Extensions = []rules.Extension{
		{WID: "A.rate", SID: sids[len(sids)-1], Expr: "gap(t)"},
		{WID: "Agap", SID: "*", Expr: "gap(t) > 0.5"},
	}
	fw, err := New(d.Catalog, cfg, engine.NewLocal(2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := fw.RunTrace(ctx, d.Generate(8000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Extensions == nil {
		t.Fatal("extension rules produced no W sequences")
	}
	return res
}

// mineAll renders what cmd/mine prints for every application: rules,
// the transition graph (rare transitions and DOT), the anomaly report,
// and motifs plus discords of seq.
func mineAll(t *testing.T, tb *staterep.Table, seq *relation.Relation) string {
	t.Helper()
	var b strings.Builder
	for _, r := range assoc.Mine(tb, assoc.Options{MinSupport: 0.1, MinConfidence: 0.8, MaxItems: 3}) {
		fmt.Fprintln(&b, r)
	}
	g, err := transition.Build(tb)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range g.Rare(1, 0.5) {
		fmt.Fprintf(&b, "%d %.3f %s -> %s\n", tr.Count, tr.Prob, tr.FromLabel, tr.ToLabel)
	}
	if err := g.WriteDOT(&b, 1); err != nil {
		t.Fatal(err)
	}
	b.WriteString(anomaly.Report(anomaly.Detect(tb, 10)))
	motifs, err := motif.Mine(seq, motif.Options{Length: 3, MinSupport: 0.1, TopK: 10})
	if err != nil {
		t.Fatal(err)
	}
	discords, err := motif.Discords(seq, motif.Options{Length: 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(&b, motifs, discords)
	return b.String()
}

// TestSealedStoreMinesLikeResult: mining the reopened store prints
// exactly what mining the in-memory result prints, and the stored
// sequences come back row for row.
func TestSealedStoreMinesLikeResult(t *testing.T) {
	res := synResult(t)
	dir := t.TempDir()
	if _, err := SealResult(dir, "SYN", res); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStored(dir, "SYN")
	if err != nil {
		t.Fatal(err)
	}
	if st.Extensions == nil {
		t.Fatal("extensions store not reopened")
	}
	if got, want := st.Signals.NumSegments(), len(res.Signals); got != want {
		t.Fatalf("signals store holds %d segments, want one per signal (%d)", got, want)
	}
	if got, want := st.Reduced.Rows(), res.ReduceStats.RowsOut; got != want {
		t.Fatalf("reduced store holds %d rows, want %d", got, want)
	}
	tb, err := st.State(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tb, res.State) {
		t.Fatalf("rebuilt state differs from the result's:\n got signals %v\nwant signals %v", tb.Signals, res.State.Signals)
	}
	for _, sig := range res.Signals {
		seq, err := st.Sequence(ctx, sig.SID)
		if err != nil {
			t.Fatal(err)
		}
		a, b := seq.Rows(), sig.Rel.Rows()
		if len(a) != len(b) {
			t.Fatalf("%s: %d stored rows, want %d", sig.SID, len(a), len(b))
		}
		for i := range a {
			if !a[i].Equal(b[i]) {
				t.Fatalf("%s row %d: stored %v, want %v", sig.SID, i, a[i], b[i])
			}
		}
	}
	sig := res.Signals[0]
	seq, err := st.Sequence(ctx, sig.SID)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mineAll(t, tb, seq), mineAll(t, res.State, sig.Rel); got != want {
		t.Fatalf("mining the store differs from mining the result:\n got %s\nwant %s", got, want)
	}
}

// TestStoredSequenceAfterCompaction: once compaction merges every
// signal into one segment, zone maps no longer separate signals and the
// row filter alone keeps Sequence to the asked signal.
func TestStoredSequenceAfterCompaction(t *testing.T) {
	res := synResult(t)
	dir := t.TempDir()
	st, err := SealResult(dir, "SYN", res)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Signals.Compact(segstore.CompactOptions{TargetRows: 1 << 30}); err != nil {
		t.Fatal(err)
	}
	if n := st.Signals.NumSegments(); n != 1 {
		t.Fatalf("compaction left %d segments, want 1", n)
	}
	sig := res.Signals[len(res.Signals)/2]
	seq, err := st.Sequence(ctx, sig.SID)
	if err != nil {
		t.Fatal(err)
	}
	if seq.NumRows() != sig.Rel.NumRows() {
		t.Fatalf("%s after compaction: %d rows, want %d", sig.SID, seq.NumRows(), sig.Rel.NumRows())
	}
	if _, err := st.Sequence(ctx, "no.such.signal"); err == nil {
		t.Fatal("a signal without stored rows must fail")
	}
}

// TestSealResultReplacesPrevious: re-sealing a domain replaces it
// instead of appending a second copy of every signal.
func TestSealResultReplacesPrevious(t *testing.T) {
	res := synResult(t)
	dir := t.TempDir()
	first, err := SealResult(dir, "SYN", res)
	if err != nil {
		t.Fatal(err)
	}
	marker := filepath.Join(dir, "SYN", "stale.txt")
	if err := os.WriteFile(marker, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := SealResult(dir, "SYN", res); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(marker); !os.IsNotExist(err) {
		t.Fatal("re-sealing did not replace the domain directory")
	}
	st, err := OpenStored(dir, "SYN")
	if err != nil {
		t.Fatal(err)
	}
	for name, pair := range map[string][2]*segstore.Store{
		"reduced":    {first.Reduced, st.Reduced},
		"signals":    {first.Signals, st.Signals},
		"extensions": {first.Extensions, st.Extensions},
	} {
		if a, b := pair[0], pair[1]; a.NumSegments() != b.NumSegments() || a.Rows() != b.Rows() {
			t.Fatalf("%s after re-seal: %d segments / %d rows, want %d / %d",
				name, b.NumSegments(), b.Rows(), a.NumSegments(), a.Rows())
		}
	}
	domains, err := StoredDomains(dir)
	if err != nil || !reflect.DeepEqual(domains, []string{"SYN"}) {
		t.Fatalf("domains = %v, %v", domains, err)
	}
}

// TestDomainNameMustBePlain: a domain name that is not one plain path
// element is rejected before anything is deleted or opened — "..",
// for one, would otherwise remove the store's parent directory.
func TestDomainNameMustBePlain(t *testing.T) {
	base := t.TempDir()
	dir := filepath.Join(base, "store")
	sentinel := filepath.Join(base, "keep.txt")
	if err := os.WriteFile(sentinel, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	res := &Result{}
	for _, name := range []string{"", ".", "..", "a/b", "../x", `a\b`} {
		if _, err := SealResult(dir, name, res); err == nil {
			t.Errorf("SealResult accepted domain %q", name)
		}
		if _, err := OpenStored(dir, name); err == nil {
			t.Errorf("OpenStored accepted domain %q", name)
		}
	}
	if _, err := os.Stat(sentinel); err != nil {
		t.Fatalf("parent directory damaged: %v", err)
	}
	// A missing domain fails to open and leaves nothing behind.
	if _, err := OpenStored(dir, "missing"); err == nil {
		t.Fatal("missing domain must fail")
	}
	if _, err := os.Stat(filepath.Join(dir, "missing")); !os.IsNotExist(err) {
		t.Fatal("opening a missing domain created it")
	}
}

// storeSource resolves every relation name to one store.
type storeSource struct{ st *segstore.Store }

func (s storeSource) Source(string) (engine.ScanSource, error) { return s.st, nil }

// TestSealedStoreAnswersAggFromFooters: the served benchmark's GROUP BY
// statement over a sealed SYN store is answered from the segment
// footers alone, every segment of it, with the rows the decoding path
// computes.
func TestSealedStoreAnswersAggFromFooters(t *testing.T) {
	st, err := SealResult(t.TempDir(), "SYN", synResult(t))
	if err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT sid, count(*) AS n, min(t) AS t_min, max(t) AS t_max FROM trace GROUP BY sid"
	q, err := query.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	p, err := query.Compile(q, func(string) (relation.Schema, error) { return st.Reduced.ScanSchema(), nil })
	if err != nil {
		t.Fatal(err)
	}
	local := engine.NewLocal(2)
	res, err := query.Run(ctx, local, storeSource{st.Reduced}, p, engine.PlanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if n := st.Reduced.NumSegments(); res.Stats.SegmentsAnswered != n || res.Stats.RowsIn != 0 {
		t.Fatalf("%d of %d segments answered, %d rows read; want all answered and none read",
			res.Stats.SegmentsAnswered, n, res.Stats.RowsIn)
	}
	pre, _, err := engine.ScanStage(ctx, local, st.Reduced, p.ScanOps)
	if err != nil {
		t.Fatal(err)
	}
	want, _, _, err := engine.DistributedAggregate(ctx, local, pre, p.GroupBy, p.Aggs, engine.PlanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rel.Rows(); !reflect.DeepEqual(got, want.Rows()) {
		t.Fatalf("footer answers differ from the decoded aggregate:\n got %v\nwant %v", got, want.Rows())
	}
}

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ivnt/internal/engine"
	"ivnt/internal/relation"
	"ivnt/internal/segstore"
	"ivnt/internal/telemetry"
)

func traceSchema() relation.Schema {
	return relation.NewSchema(
		relation.Column{Name: "ts", Kind: relation.KindInt},
		relation.Column{Name: "val", Kind: relation.KindFloat},
		relation.Column{Name: "sid", Kind: relation.KindString},
	)
}

// seedStore creates a trace store with three segments in disjoint ts
// bands (0-9, 100-109, 200-209) so range predicates provably prune.
func seedStore(t *testing.T, dir string) *segstore.Store {
	t.Helper()
	st, err := segstore.Open(dir, traceSchema(), segstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for band := 0; band < 3; band++ {
		rows := make([]relation.Row, 10)
		for i := range rows {
			ts := int64(band*100 + i)
			rows[i] = relation.Row{
				relation.Int(ts),
				relation.Float(float64(ts) / 2),
				relation.Str(fmt.Sprintf("s%d", band)),
			}
		}
		if err := st.AppendSegment(rows); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func newTestServer(t *testing.T, tenants map[string]*TenantConfig) *Server {
	t.Helper()
	return &Server{
		Exec:    engine.NewLocal(2),
		Catalog: NewCatalog(&Config{Tenants: tenants}, segstore.Options{}),
	}
}

func counter(name string) int64 { return telemetry.Default().CounterValue(name) }

type httpClient struct {
	t   *testing.T
	url string
}

func (c httpClient) post(path string, body any) (int, []byte) {
	c.t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := http.Post(c.url+path, "application/json", bytes.NewReader(data))
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		c.t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

func (c httpClient) query(tenant, sql string) *Response {
	c.t.Helper()
	code, body := c.post("/query", queryRequest{Tenant: tenant, SQL: sql})
	if code != http.StatusOK {
		c.t.Fatalf("query %q: HTTP %d: %s", sql, code, body)
	}
	var r Response
	if err := json.Unmarshal(body, &r); err != nil {
		c.t.Fatal(err)
	}
	return &r
}

// The served path must scan through the same zone-map pruning as a
// hand-built pipeline and produce cell-for-cell identical output.
func TestServedQueryOverStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "trace")
	st := seedStore(t, dir)
	s := newTestServer(t, map[string]*TenantConfig{
		"acme": {Relations: map[string]string{"trace": dir}},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := httpClient{t, ts.URL}

	const sql = "SELECT ts, val FROM trace WHERE ts >= 200 ORDER BY ts"
	pruned0 := counter("segstore_segments_pruned_total")
	resp := c.query("acme", sql)
	if d := counter("segstore_segments_pruned_total") - pruned0; d < 2 {
		t.Errorf("pruned %d segments, want >= 2 (zone maps not consulted?)", d)
	}
	if resp.Cache != "miss" || resp.RowCount != 10 {
		t.Fatalf("first response: cache=%q rows=%d", resp.Cache, resp.RowCount)
	}

	// Hand-build the same pipeline straight on the store: filter +
	// project via ScanStage, then the governed sort. The served rows
	// must render identically, cell for cell.
	rel, _, err := engine.ScanStage(context.Background(), engine.NewLocal(2), st,
		[]engine.OpDesc{engine.Filter("ts >= 200"), engine.Project("ts", "val")})
	if err != nil {
		t.Fatal(err)
	}
	rel, err = engine.SortRelation(rel, "ts")
	if err != nil {
		t.Fatal(err)
	}
	want := RenderRows(rel)
	// The response rows round-tripped through JSON; normalize the same
	// way before comparing.
	var got [][]any
	raw, _ := json.Marshal(resp.Rows)
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	wantNorm := make([][]any, len(want))
	raw, _ = json.Marshal(want)
	if err := json.Unmarshal(raw, &wantNorm); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, wantNorm) {
		t.Fatalf("served rows differ from hand-built pipeline:\n got %v\nwant %v", got, wantNorm)
	}

	// Same statement again: answered from the result cache.
	hits0 := counter("serve_result_cache_hits_total")
	resp = c.query("acme", sql)
	if resp.Cache != "hit" {
		t.Fatalf("second response cache = %q, want hit", resp.Cache)
	}
	if d := counter("serve_result_cache_hits_total") - hits0; d != 1 {
		t.Fatalf("result cache hits moved by %d, want 1", d)
	}

	// Sealing a segment bumps the generation, so the next query misses
	// the cache and sees the new rows.
	gen0 := st.Generation()
	code, body := c.post("/ingest", ingestRequest{
		Tenant: "acme", Relation: "trace",
		Rows: [][]any{{300, 150.0, "s3"}, {301, 150.5, "s3"}},
	})
	if code != http.StatusOK {
		t.Fatalf("ingest: HTTP %d: %s", code, body)
	}
	var ing ingestResponse
	if err := json.Unmarshal(body, &ing); err != nil {
		t.Fatal(err)
	}
	if ing.Generation != gen0+1 {
		t.Fatalf("ingest generation %d, want %d", ing.Generation, gen0+1)
	}
	resp = c.query("acme", sql)
	if resp.Cache != "miss" || resp.RowCount != 12 {
		t.Fatalf("post-ingest response: cache=%q rows=%d, want miss/12", resp.Cache, resp.RowCount)
	}

	// nocache bypasses the cache read but still executes correctly.
	code, body = c.post("/query?nocache=1", queryRequest{Tenant: "acme", SQL: sql})
	if code != http.StatusOK {
		t.Fatalf("nocache query: HTTP %d: %s", code, body)
	}
	var r2 Response
	if err := json.Unmarshal(body, &r2); err != nil {
		t.Fatal(err)
	}
	if r2.Cache != "bypass" || r2.RowCount != 12 {
		t.Fatalf("nocache response: cache=%q rows=%d", r2.Cache, r2.RowCount)
	}

	// Plan cache: all of the above reused one compiled plan.
	if s.plans.len() != 1 {
		t.Fatalf("plan cache holds %d entries, want 1", s.plans.len())
	}

	// A grouped query exercises the aggregate path end to end.
	agg := c.query("acme", "SELECT sid, count(*) AS n FROM trace GROUP BY sid ORDER BY sid")
	if agg.RowCount != 4 || agg.Plan == "" {
		t.Fatalf("aggregate response: %+v", agg)
	}
}

func TestServeCatalogEndpoint(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "trace")
	seedStore(t, dir)
	s := newTestServer(t, map[string]*TenantConfig{
		"acme": {Relations: map[string]string{"trace": dir}},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/catalog?tenant=acme")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rels []catalogRelation
	if err := json.NewDecoder(resp.Body).Decode(&rels); err != nil {
		t.Fatal(err)
	}
	if len(rels) != 1 || rels[0].Name != "trace" || rels[0].Segments != 3 || rels[0].Generation != 3 {
		t.Fatalf("catalog = %+v", rels)
	}

	resp, err = http.Get(ts.URL + "/catalog?tenant=nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown tenant: HTTP %d", resp.StatusCode)
	}
}

func TestServeErrors(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "trace")
	seedStore(t, dir)
	s := newTestServer(t, map[string]*TenantConfig{
		"acme": {Relations: map[string]string{"trace": dir}},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := httpClient{t, ts.URL}

	cases := []struct {
		tenant, sql string
		code        int
	}{
		{"ghost", "SELECT ts FROM trace", http.StatusNotFound},
		{"acme", "SELECT FROM", http.StatusBadRequest},
		{"acme", "SELECT nope FROM trace", http.StatusBadRequest},
		{"acme", "SELECT ts FROM ghostrel", http.StatusBadRequest},
	}
	for _, tc := range cases {
		code, body := c.post("/query", queryRequest{Tenant: tc.tenant, SQL: tc.sql})
		if code != tc.code {
			t.Errorf("%s/%q: HTTP %d (want %d): %s", tc.tenant, tc.sql, code, tc.code, body)
		}
	}
}

// Tenants over their concurrency ceiling wait — deferrals count up,
// nothing fails.
func TestServeAdmissionDeferrals(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "trace")
	seedStore(t, dir)
	s := newTestServer(t, map[string]*TenantConfig{
		"acme": {MaxConcurrency: 2, Relations: map[string]string{"trace": dir}},
		"zeta": {MaxConcurrency: 2, Relations: map[string]string{"trace": dir}},
	})
	DebugQueryDelay = func(string) { time.Sleep(20 * time.Millisecond) }
	defer func() { DebugQueryDelay = nil }()

	defer0 := counter("serve_admission_deferrals_total")
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for _, tenant := range []string{"acme", "zeta"} {
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(tenant string, i int) {
				defer wg.Done()
				// Distinct LIMITs defeat the result cache so every query
				// occupies a slot.
				sql := fmt.Sprintf("SELECT ts FROM trace ORDER BY ts LIMIT %d", i+1)
				resp, err := s.Query(context.Background(), tenant, sql, false)
				if err != nil {
					errs <- err
					return
				}
				if resp.RowCount != i+1 {
					errs <- fmt.Errorf("%s limit %d: got %d rows", tenant, i+1, resp.RowCount)
				}
			}(tenant, i)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if d := counter("serve_admission_deferrals_total") - defer0; d == 0 {
		t.Error("16 queries against 2-slot tenants produced no admission deferrals")
	}
}

// Shutdown drains: in-flight queries finish, new ones are rejected.
func TestServeShutdownDrain(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "trace")
	seedStore(t, dir)
	s := newTestServer(t, map[string]*TenantConfig{
		"acme": {Relations: map[string]string{"trace": dir}},
	})
	entered := make(chan struct{})
	release := make(chan struct{})
	DebugQueryDelay = func(string) {
		close(entered)
		<-release
	}
	defer func() { DebugQueryDelay = nil }()

	type out struct {
		resp *Response
		err  error
	}
	first := make(chan out, 1)
	go func() {
		r, err := s.Query(context.Background(), "acme", "SELECT ts FROM trace ORDER BY ts LIMIT 3", false)
		first <- out{r, err}
	}()
	<-entered
	DebugQueryDelay = nil // only the first query should block

	drained := make(chan bool, 1)
	go func() { drained <- s.Shutdown(10 * time.Second) }()

	// Draining servers reject new work immediately.
	deadline := time.After(5 * time.Second)
	for !s.draining.Load() {
		select {
		case <-deadline:
			t.Fatal("server never started draining")
		case <-time.After(time.Millisecond):
		}
	}
	if _, err := s.Query(context.Background(), "acme", "SELECT ts FROM trace", false); err == nil {
		t.Fatal("query accepted while draining")
	} else if he, ok := err.(*httpError); !ok || he.code != http.StatusServiceUnavailable {
		t.Fatalf("draining error = %v, want 503", err)
	}

	close(release)
	if got := <-first; got.err != nil {
		t.Fatalf("in-flight query failed during drain: %v", got.err)
	} else if got.resp.RowCount != 3 {
		t.Fatalf("in-flight query rows = %d", got.resp.RowCount)
	}
	if !<-drained {
		t.Fatal("Shutdown timed out with one blocking query released")
	}
}

func TestLoadConfig(t *testing.T) {
	path := filepath.Join(t.TempDir(), "catalog.json")
	write := func(s string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(s), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(`{"tenants": {"acme": {"max_concurrency": 2, "relations": {"trace": "/data/trace"}}}}`)
	cfg, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Tenants["acme"].MaxConcurrency != 2 || cfg.Tenants["acme"].Relations["trace"] != "/data/trace" {
		t.Fatalf("config = %+v", cfg.Tenants["acme"])
	}
	for _, bad := range []string{
		`{}`,
		`{"tenants": {"acme": {}}}`,
		`{"tenants": {"acme": {"max_concurrency": -1, "relations": {"t": "d"}}}}`,
		`not json`,
	} {
		write(bad)
		if _, err := LoadConfig(path); err == nil {
			t.Errorf("LoadConfig(%s): expected error", bad)
		}
	}
}

// Untyped (kind-null) columns — extract-sealed stores declare these for
// mixed-kind value columns — accept any scalar JSON cell, kind inferred.
func TestDecodeCellUntyped(t *testing.T) {
	for _, tc := range []struct {
		cell any
		want relation.Value
	}{
		{nil, relation.Null()},
		{true, relation.Bool(true)},
		{float64(42), relation.Int(42)},
		{12.5, relation.Float(12.5)},
		{"hi", relation.Str("hi")},
	} {
		got, err := decodeCell(relation.KindNull, tc.cell)
		if err != nil {
			t.Fatalf("decodeCell(null, %v): %v", tc.cell, err)
		}
		if !got.Equal(tc.want) {
			t.Errorf("decodeCell(null, %v) = %v, want %v", tc.cell, got, tc.want)
		}
	}
	if _, err := decodeCell(relation.KindNull, []any{1}); err == nil {
		t.Error("decodeCell(null, array): expected error")
	}
}

func TestLRU(t *testing.T) {
	c := newLRU(2)
	c.put("a", 1)
	c.put("b", 2)
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing")
	}
	c.put("c", 3) // evicts b (a was touched)
	if _, ok := c.get("b"); ok {
		t.Fatal("b not evicted")
	}
	if v, ok := c.get("a"); !ok || v.(int) != 1 {
		t.Fatal("a lost")
	}
	disabled := newLRU(-1)
	disabled.put("x", 1)
	if _, ok := disabled.get("x"); ok || disabled.len() != 0 {
		t.Fatal("disabled cache stored an entry")
	}
}

func TestVerifyMetrics(t *testing.T) {
	if err := VerifyMetrics(); err != nil {
		t.Fatal(err)
	}
}

// An aggregate over single-valued segments reports the segments its
// footers answered; a filtered one decodes and reports none.
func TestServeReportsAnsweredSegments(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "trace")
	seedStore(t, dir)
	s := newTestServer(t, map[string]*TenantConfig{
		"acme": {Relations: map[string]string{"trace": dir}},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := httpClient{t, ts.URL}

	resp := c.query("acme", "SELECT sid, count(*) AS n, min(val) AS lo, max(ts) AS hi FROM trace GROUP BY sid ORDER BY sid")
	if resp.Stats.SegmentsAnswered != 3 || resp.Stats.RowsIn != 0 || resp.RowCount != 3 {
		t.Fatalf("stats %+v, %d rows; want 3 segments answered, none read, 3 rows", resp.Stats, resp.RowCount)
	}
	if got := fmt.Sprint(resp.Rows[2]); got != "[s2 10 100 209]" {
		t.Fatalf("row for s2 = %s, want [s2 10 100 209]", got)
	}
	resp = c.query("acme", "SELECT sid, count(*) AS n FROM trace WHERE ts >= 0 GROUP BY sid")
	// rows_in counts the rows the scan read, once: not again for the
	// partial aggregation and the final projection.
	if resp.Stats.SegmentsAnswered != 0 || resp.Stats.RowsIn != 30 {
		t.Fatalf("filtered aggregate stats %+v; want nothing answered, the 30 stored rows read", resp.Stats)
	}
}

// TestServePointQueryPrunesPages: a point query (one signal, a time
// window) over signal segments of several pages reads only the pages
// its window can match, and says so in its stats and metrics.
func TestServePointQueryPrunesPages(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "trace")
	st, err := segstore.Open(dir, traceSchema(), segstore.Options{Compress: true, Encodings: true})
	if err != nil {
		t.Fatal(err)
	}
	const n = 4 * segstore.PageRows
	for _, sid := range []string{"a", "b"} {
		rows := make([]relation.Row, n)
		for i := range rows {
			rows[i] = relation.Row{relation.Int(int64(i)), relation.Float(float64(i / 50)), relation.Str(sid)}
		}
		if err := st.AppendSegment(rows); err != nil {
			t.Fatal(err)
		}
	}
	s := newTestServer(t, map[string]*TenantConfig{
		"acme": {Relations: map[string]string{"trace": dir}},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := httpClient{t, ts.URL}

	pruned := counter("segstore_pages_pruned_total")
	lo := segstore.PageRows + 10
	resp := c.query("acme", fmt.Sprintf(`SELECT ts, val FROM trace WHERE sid == "b" && ts >= %d && ts < %d`, lo, lo+100))
	if resp.RowCount != 100 || resp.Stats.RowsIn != segstore.PageRows {
		t.Fatalf("%d rows out, %d read; want 100 out of one %d-row page", resp.RowCount, resp.Stats.RowsIn, segstore.PageRows)
	}
	if resp.Stats.PagesScanned != 1 || resp.Stats.PagesPruned != 3 {
		t.Fatalf("pages scanned %d, pruned %d; want 1 and 3", resp.Stats.PagesScanned, resp.Stats.PagesPruned)
	}
	if d := counter("segstore_pages_pruned_total") - pruned; d != 3 {
		t.Fatalf("segstore_pages_pruned_total advanced by %d, want 3", d)
	}
}

// endless is an io.Reader of repeated bytes that never ends.
type endless byte

func (e endless) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(e)
	}
	return len(p), nil
}

// An oversized body fails its request with 413; the server goes on
// serving the next one.
func TestServeBodyLimits(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "trace")
	seedStore(t, dir)
	s := newTestServer(t, map[string]*TenantConfig{
		"acme": {Relations: map[string]string{"trace": dir}},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := httpClient{t, ts.URL}

	long := "SELECT ts FROM trace WHERE sid == \"" + string(bytes.Repeat([]byte{'x'}, maxQueryBody)) + "\""
	if code, body := c.post("/query", queryRequest{Tenant: "acme", SQL: long}); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized /query: HTTP %d (want 413): %.200s", code, body)
	}
	if resp := c.query("acme", "SELECT ts FROM trace WHERE ts < 5"); resp.RowCount != 5 {
		t.Fatalf("query after the oversized one: %d rows, want 5", resp.RowCount)
	}

	// An /ingest body that never ends stops at the limit. It goes to the
	// handler directly, so the client never has to push it over a socket
	// the server has stopped reading.
	prefix := `{"tenant":"acme","relation":"trace","rows":[`
	body := io.MultiReader(strings.NewReader(prefix), endless(' '))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", body))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized /ingest: HTTP %d (want 413): %.200s", rec.Code, rec.Body)
	}
	code, out := c.post("/ingest", ingestRequest{Tenant: "acme", Relation: "trace",
		Rows: [][]any{{300, 150.0, "s3"}}})
	if code != http.StatusOK {
		t.Fatalf("ingest after the oversized one: HTTP %d: %s", code, out)
	}
	if resp := c.query("acme", "SELECT ts FROM trace WHERE ts >= 300"); resp.RowCount != 1 {
		t.Fatalf("ingested row not served: %d rows, want 1", resp.RowCount)
	}
}

// Package serve is the multi-tenant query service: a long-running HTTP
// daemon (cmd/served) that compiles SQL-ish statements (internal/query)
// onto engine plans and runs them over per-tenant segment stores with a
// resident executor — local workers or a persistent cluster driver
// whose pooled connections keep shipped stages warm across queries.
//
// Three mechanisms keep a shared daemon healthy under many tenants:
//
//   - Admission control. Each tenant holds a concurrency ceiling;
//     excess queries wait for a slot (counted as deferrals, never
//     failed). When the process memory governor reports pressure at or
//     above AdmissionThreshold, admission additionally pauses before
//     dispatch, shedding load instead of deepening spill.
//
//   - Plan cache. Compiled plans are cached per (tenant, statement), so
//     a repeated statement skips the parser and compiler entirely and
//     lands on the same engine op tree — whose stage fingerprints then
//     hit the engine's compiled-pipeline cache and, on a persistent
//     cluster driver, the executors' already-shipped stages.
//
//   - Result cache. Rendered responses are cached under
//     (tenant, statement, relation generations). A segment seal bumps
//     the store's manifest generation, so ingest invalidates exactly
//     the cached results that could observe the new rows — no TTLs, no
//     explicit flush.
//
// See docs/QUERY.md for the statement grammar and a worked session.
package serve

import (
	"container/list"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ivnt/internal/engine"
	"ivnt/internal/memgov"
	"ivnt/internal/query"
	"ivnt/internal/relation"
	"ivnt/internal/telemetry"
)

// DebugQueryDelay, when non-nil, runs while a query holds its admission
// slot, before execution. Tests use it to keep slots occupied and force
// deferrals.
var DebugQueryDelay func(tenant string)

// Server is the query service. Exported fields are configuration; set
// them before the first request. The zero value of each picks a
// sensible default.
type Server struct {
	// Exec runs stages: engine.NewLocal(n) in-process, or a
	// *cluster.Driver with Persistent set for a resident pool.
	Exec engine.Executor
	// Catalog resolves tenants and relations to segment stores.
	Catalog *Catalog
	// DefaultMaxConcurrency applies to tenants whose config leaves
	// MaxConcurrency 0. Default 4.
	DefaultMaxConcurrency int
	// AdmissionThreshold is the memgov pressure fraction at or above
	// which admission pauses before dispatching. Default 0.85;
	// negative disables pressure deferral.
	AdmissionThreshold float64
	// AdmissionPause is one pressure-deferral pause. Default 20ms.
	AdmissionPause time.Duration
	// AdmissionMaxPauses bounds pressure pauses per query; after that
	// the query proceeds (spilling under the memory budget beats
	// waiting forever). Default 50.
	AdmissionMaxPauses int
	// PlanCacheCap bounds cached compiled plans. Default 256;
	// negative disables the plan cache.
	PlanCacheCap int
	// ResultCacheCap bounds cached rendered responses. Default 128;
	// negative disables the result cache.
	ResultCacheCap int
	// PlanConfig tunes broadcast/shuffle selection for joins and
	// aggregations.
	PlanConfig engine.PlanConfig
	// Tracer, when non-nil, records one span per query. Tasks, when
	// non-nil, is mounted on the debug mux by Handler.
	Tracer *telemetry.Tracer
	Tasks  *telemetry.TaskTable

	initOnce sync.Once
	draining atomic.Bool
	inflight sync.WaitGroup
	active   atomic.Int64

	mu      sync.Mutex
	sems    map[string]chan struct{}
	plans   *lruCache
	results *lruCache
}

func (s *Server) init() {
	s.initOnce.Do(func() {
		if s.DefaultMaxConcurrency <= 0 {
			s.DefaultMaxConcurrency = 4
		}
		if s.AdmissionThreshold == 0 {
			s.AdmissionThreshold = 0.85
		}
		if s.AdmissionPause <= 0 {
			s.AdmissionPause = 20 * time.Millisecond
		}
		if s.AdmissionMaxPauses <= 0 {
			s.AdmissionMaxPauses = 50
		}
		if s.PlanCacheCap == 0 {
			s.PlanCacheCap = 256
		}
		if s.ResultCacheCap == 0 {
			s.ResultCacheCap = 128
		}
		s.sems = map[string]chan struct{}{}
		s.plans = newLRU(s.PlanCacheCap)
		s.results = newLRU(s.ResultCacheCap)
	})
}

// Response is the rendered result of one query, exactly what /query
// returns as JSON. Cached responses are replayed with Cache set to
// "hit"; everything else in a cached Response is shared read-only.
type Response struct {
	Columns  []ColumnJSON `json:"columns"`
	Rows     [][]any      `json:"rows"`
	RowCount int          `json:"row_count"`
	Plan     string       `json:"plan"`  // broadcast unless a join/aggregate chose shuffle
	Cache    string       `json:"cache"` // hit|miss|bypass
	Stats    StatsJSON    `json:"stats"`
}

// ColumnJSON names one output column and its kind.
type ColumnJSON struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
}

// StatsJSON is the engine stats excerpt reported per query.
type StatsJSON struct {
	RowsIn  int     `json:"rows_in"`
	RowsOut int     `json:"rows_out"`
	Tasks   int     `json:"tasks"`
	WallMS  float64 `json:"wall_ms"`
	// SegmentsAnswered counts segments an aggregate took from the
	// segment footers without decoding (engine.ScanAggregate).
	SegmentsAnswered int `json:"segments_answered"`
	// PagesScanned and PagesPruned count the segment pages a filtered
	// scan read and the ones page zone maps let it skip.
	PagesScanned int `json:"pages_scanned"`
	PagesPruned  int `json:"pages_pruned"`
}

// httpError carries a status code out of the query path.
type httpError struct {
	code   int
	status string // serve_queries_total label
	err    error
}

func (e *httpError) Error() string { return e.err.Error() }

func errf(code int, status, format string, args ...any) *httpError {
	return &httpError{code: code, status: status, err: fmt.Errorf(format, args...)}
}

// Query parses, admits, executes and renders one statement for a
// tenant. nocache bypasses result-cache reads (the response still
// populates the cache), which benchmarks use to measure execution.
func (s *Server) Query(ctx context.Context, tenant, sql string, nocache bool) (*Response, error) {
	s.init()
	start := time.Now()
	resp, herr := s.query(ctx, tenant, sql, nocache)
	status := "ok"
	if herr != nil {
		status = herr.status
	}
	mQueries.With(status).Inc()
	telemetry.Since(mQuerySeconds.With(status), start)
	if herr != nil {
		return nil, herr
	}
	return resp, nil
}

func (s *Server) query(ctx context.Context, tenant, sql string, nocache bool) (*Response, *httpError) {
	if s.draining.Load() {
		return nil, errf(http.StatusServiceUnavailable, "rejected", "serve: draining, not accepting queries")
	}
	tc, ok := s.Catalog.Tenant(tenant)
	if !ok {
		return nil, errf(http.StatusNotFound, "rejected", "serve: unknown tenant %q", tenant)
	}

	sp := s.Tracer.StartSpan("serve.query",
		telemetry.A("tenant", tenant), telemetry.A("sql", sql))
	defer sp.End()

	p, herr := s.plan(tenant, sql)
	if herr != nil {
		sp.SetAttr("error", herr.Error())
		return nil, herr
	}

	// Resolve the stores (and their generations) before touching the
	// result cache: the generations ARE the cache key, so a seal that
	// lands before this point serves fresh data and one that lands
	// after is a later key.
	rels := []string{p.From}
	if p.Join != nil {
		rels = append(rels, p.Join.Rel)
	}
	key := tenant + "\x00" + sql
	for _, rel := range rels {
		st, err := s.Catalog.Store(tenant, rel)
		if err != nil {
			return nil, errf(http.StatusNotFound, "rejected", "%s", err.Error())
		}
		key += "\x00" + rel + "@" + strconv.FormatUint(st.Generation(), 10)
	}
	if !nocache {
		if v, ok := s.results.get(key); ok {
			mResultHits.Inc()
			sp.SetAttr("cache", "hit")
			r := *v.(*Response)
			r.Cache = "hit"
			return &r, nil
		}
	}
	mResultMisses.Inc()

	release, herr := s.admit(ctx, tenant, tc)
	if herr != nil {
		return nil, herr
	}
	defer release()
	mActive.Add(1)
	defer mActive.Add(-1)
	s.active.Add(1)
	defer s.active.Add(-1)
	s.inflight.Add(1)
	defer s.inflight.Done()

	if DebugQueryDelay != nil {
		DebugQueryDelay(tenant)
	}

	res, err := query.Run(ctx, s.Exec, tenantSources{s.Catalog, tenant}, p, s.PlanConfig)
	if err != nil {
		sp.SetAttr("error", err.Error())
		return nil, errf(http.StatusInternalServerError, "exec_error", "serve: %s", err.Error())
	}
	resp := render(res)
	s.results.put(key, resp)
	sp.SetAttr("rows", strconv.Itoa(resp.RowCount))
	out := *resp
	if nocache {
		out.Cache = "bypass"
	} else {
		out.Cache = "miss"
	}
	return &out, nil
}

// plan returns the cached compiled plan for (tenant, sql), compiling on
// miss. Plans key on the statement alone — not generations — because a
// store's schema is fixed for its life, so a plan never goes stale.
func (s *Server) plan(tenant, sql string) (*query.Plan, *httpError) {
	key := tenant + "\x00" + sql
	if v, ok := s.plans.get(key); ok {
		mPlanHits.Inc()
		return v.(*query.Plan), nil
	}
	q, err := query.Parse(sql)
	if err != nil {
		return nil, errf(http.StatusBadRequest, "parse_error", "%s", err.Error())
	}
	p, err := query.Compile(q, func(rel string) (relation.Schema, error) {
		st, err := s.Catalog.Store(tenant, rel)
		if err != nil {
			return relation.Schema{}, err
		}
		return st.ScanSchema(), nil
	})
	if err != nil {
		return nil, errf(http.StatusBadRequest, "compile_error", "%s", err.Error())
	}
	mPlanMisses.Inc()
	s.plans.put(key, p)
	return p, nil
}

// admit blocks until the tenant has a free concurrency slot and memory
// pressure is acceptable. Waiting is counted (deferrals), never failed:
// a throttled tenant's queries are late, not lost.
func (s *Server) admit(ctx context.Context, tenant string, tc *TenantConfig) (func(), *httpError) {
	limit := tc.MaxConcurrency
	if limit <= 0 {
		limit = s.DefaultMaxConcurrency
	}
	s.mu.Lock()
	sem, ok := s.sems[tenant]
	if !ok || cap(sem) != limit {
		sem = make(chan struct{}, limit)
		s.sems[tenant] = sem
	}
	s.mu.Unlock()

	select {
	case sem <- struct{}{}:
	default:
		// Slot wait — a deferral, then block for the slot.
		mDeferrals.Inc()
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			return nil, errf(http.StatusServiceUnavailable, "rejected", "serve: %s", ctx.Err())
		}
	}
	release := func() { <-sem }

	gov := memgov.Default()
	if s.AdmissionThreshold > 0 && !gov.Unlimited() {
		for i := 0; i < s.AdmissionMaxPauses && gov.Pressure() >= s.AdmissionThreshold; i++ {
			mDeferrals.Inc()
			select {
			case <-time.After(s.AdmissionPause):
			case <-ctx.Done():
				release()
				return nil, errf(http.StatusServiceUnavailable, "rejected", "serve: %s", ctx.Err())
			}
		}
	}
	return release, nil
}

type tenantSources struct {
	c      *Catalog
	tenant string
}

func (t tenantSources) Source(rel string) (engine.ScanSource, error) {
	return t.c.Store(t.tenant, rel)
}

// render builds the cached Response for a query result. Cache is left
// empty; responders stamp hit/miss/bypass per reply.
func render(res *query.Result) *Response {
	sch := res.Rel.Schema
	cols := make([]ColumnJSON, sch.Len())
	for i, c := range sch.Cols {
		cols[i] = ColumnJSON{Name: c.Name, Kind: c.Kind.String()}
	}
	rows := RenderRows(res.Rel)
	return &Response{
		Columns:  cols,
		Rows:     rows,
		RowCount: len(rows),
		Plan:     res.PlanKind.String(),
		Stats: StatsJSON{
			RowsIn:  res.Stats.RowsIn,
			RowsOut: res.Stats.RowsOut,
			Tasks:   res.Stats.Tasks,
			WallMS:  float64(res.Stats.Wall) / float64(time.Millisecond),

			SegmentsAnswered: res.Stats.SegmentsAnswered,
			PagesScanned:     res.Stats.PagesScanned,
			PagesPruned:      res.Stats.PagesPruned,
		},
	}
}

// RenderRows converts a relation to the JSON cell encoding /query uses:
// null → null, bool → bool, int → number, float → number (NaN and the
// infinities as the strings "NaN", "+Inf", "-Inf"), string → string,
// bytes → base64 string. Exported so tests and benchmarks can compare a
// served response against a hand-built pipeline cell for cell.
func RenderRows(rel *relation.Relation) [][]any {
	rs := rel.Rows()
	out := make([][]any, len(rs))
	for i, r := range rs {
		cells := make([]any, len(r))
		for j, v := range r {
			cells[j] = renderCell(v)
		}
		out[i] = cells
	}
	return out
}

func renderCell(v relation.Value) any {
	switch v.K {
	case relation.KindBool:
		return v.I != 0
	case relation.KindInt:
		return v.I
	case relation.KindFloat:
		switch {
		case math.IsNaN(v.F):
			return "NaN"
		case math.IsInf(v.F, 1):
			return "+Inf"
		case math.IsInf(v.F, -1):
			return "-Inf"
		}
		return v.F
	case relation.KindString:
		return v.S
	case relation.KindBytes:
		return base64.StdEncoding.EncodeToString(v.B)
	default:
		return nil
	}
}

// Handler returns the service's HTTP mux: /query, /ingest and /catalog
// on top of the telemetry debug mux (/metrics, /spans, /tasks,
// /debug/pprof).
func (s *Server) Handler() http.Handler {
	s.init()
	mux := telemetry.NewDebugMux(telemetry.Default(), s.Tracer, s.Tasks)
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/ingest", s.handleIngest)
	mux.HandleFunc("/catalog", s.handleCatalog)
	return mux
}

// Request body limits. A statement is short; an ingest batch becomes
// one segment, and 32 MiB of JSON rows is far past any batch the tests
// or benchmarks send. A longer body fails its request with 413; the
// server keeps serving.
const (
	maxQueryBody  = 1 << 20
	maxIngestBody = 32 << 20
)

// decodeBody decodes the JSON request body, read through an
// http.MaxBytesReader of limit bytes, into v. On failure it has already
// replied — 413 for an oversized body, 400 for a malformed one — and
// returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		http.Error(w, fmt.Sprintf("request body over %d bytes", limit), http.StatusRequestEntityTooLarge)
		return false
	}
	http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
	return false
}

type queryRequest struct {
	Tenant string `json:"tenant"`
	SQL    string `json:"sql"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req queryRequest
	if !decodeBody(w, r, maxQueryBody, &req) {
		return
	}
	nocache := r.URL.Query().Get("nocache") == "1"
	resp, err := s.Query(r.Context(), req.Tenant, req.SQL, nocache)
	if err != nil {
		code := http.StatusInternalServerError
		if he, ok := err.(*httpError); ok {
			code = he.code
		}
		http.Error(w, err.Error(), code)
		return
	}
	writeJSON(w, resp)
}

type ingestRequest struct {
	Tenant   string  `json:"tenant"`
	Relation string  `json:"relation"`
	Rows     [][]any `json:"rows"`
}

type ingestResponse struct {
	Rows       int    `json:"rows"`
	Generation uint64 `json:"generation"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	var req ingestRequest
	if !decodeBody(w, r, maxIngestBody, &req) {
		return
	}
	st, err := s.Catalog.Store(req.Tenant, req.Relation)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	rows, err := decodeRows(st.ScanSchema(), req.Rows)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.inflight.Add(1)
	defer s.inflight.Done()
	if err := st.AppendSegment(rows); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	mIngestedSegments.Inc()
	writeJSON(w, ingestResponse{Rows: len(rows), Generation: st.Generation()})
}

// decodeRows converts JSON cells to relation values by column kind,
// inverting RenderRows (numbers arrive as float64; ints must be whole).
func decodeRows(sch relation.Schema, in [][]any) ([]relation.Row, error) {
	rows := make([]relation.Row, len(in))
	for i, cells := range in {
		if len(cells) != sch.Len() {
			return nil, fmt.Errorf("serve: row %d has %d cells, schema has %d", i, len(cells), sch.Len())
		}
		row := make(relation.Row, len(cells))
		for j, cell := range cells {
			v, err := decodeCell(sch.Cols[j].Kind, cell)
			if err != nil {
				return nil, fmt.Errorf("serve: row %d col %s: %w", i, sch.Cols[j].Name, err)
			}
			row[j] = v
		}
		rows[i] = row
	}
	return rows, nil
}

func decodeCell(k relation.Kind, cell any) (relation.Value, error) {
	if cell == nil {
		return relation.Null(), nil
	}
	switch k {
	case relation.KindBool:
		b, ok := cell.(bool)
		if !ok {
			return relation.Value{}, fmt.Errorf("want bool, got %T", cell)
		}
		return relation.Bool(b), nil
	case relation.KindInt:
		f, ok := cell.(float64)
		if !ok || f != math.Trunc(f) {
			return relation.Value{}, fmt.Errorf("want integer, got %v", cell)
		}
		return relation.Int(int64(f)), nil
	case relation.KindFloat:
		switch c := cell.(type) {
		case float64:
			return relation.Float(c), nil
		case string: // NaN / +Inf / -Inf round-trip
			f, err := strconv.ParseFloat(c, 64)
			if err != nil {
				return relation.Value{}, fmt.Errorf("want float, got %q", c)
			}
			return relation.Float(f), nil
		}
		return relation.Value{}, fmt.Errorf("want float, got %T", cell)
	case relation.KindString:
		s, ok := cell.(string)
		if !ok {
			return relation.Value{}, fmt.Errorf("want string, got %T", cell)
		}
		return relation.Str(s), nil
	case relation.KindBytes:
		s, ok := cell.(string)
		if !ok {
			return relation.Value{}, fmt.Errorf("want base64 string, got %T", cell)
		}
		b, err := base64.StdEncoding.DecodeString(s)
		if err != nil {
			return relation.Value{}, err
		}
		return relation.Bytes(b), nil
	case relation.KindNull:
		// An untyped (mixed-kind) column — extract-sealed stores declare
		// these — accepts any JSON cell; the kind is inferred per value.
		switch c := cell.(type) {
		case bool:
			return relation.Bool(c), nil
		case float64:
			if c == math.Trunc(c) {
				return relation.Int(int64(c)), nil
			}
			return relation.Float(c), nil
		case string:
			return relation.Str(c), nil
		}
		return relation.Value{}, fmt.Errorf("want scalar, got %T", cell)
	default:
		return relation.Value{}, fmt.Errorf("unsupported kind %s", k)
	}
}

type catalogRelation struct {
	Name       string `json:"name"`
	Schema     string `json:"schema"`
	Segments   int    `json:"segments"`
	Generation uint64 `json:"generation"`
}

func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	tenant := r.URL.Query().Get("tenant")
	names, err := s.Catalog.Relations(tenant)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	out := make([]catalogRelation, 0, len(names))
	for _, name := range names {
		st, err := s.Catalog.Store(tenant, name)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		refs, err := st.Segments(engine.Pushdown{})
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		out = append(out, catalogRelation{
			Name:       name,
			Schema:     st.ScanSchema().String(),
			Segments:   len(refs),
			Generation: st.Generation(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	writeJSON(w, out)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// Shutdown drains the server: new queries and ingests get 503, the
// in-flight ones run to completion (up to grace), then a persistent
// executor pool is released if the executor exposes Close. Returns
// false if the grace window expired with work still in flight.
func (s *Server) Shutdown(grace time.Duration) bool {
	s.init()
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	drained := true
	select {
	case <-done:
	case <-time.After(grace):
		drained = false
	}
	if c, ok := s.Exec.(interface{ Close() }); ok {
		c.Close()
	}
	return drained
}

// lruCache is a small mutex-guarded LRU. cap <= -1 disables it (every
// get misses, puts are dropped); it has no expiry — result entries are
// implicitly expired by generation-bearing keys going cold.
type lruCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List
	m   map[string]*list.Element
}

type lruEntry struct {
	key string
	val any
}

func newLRU(cap int) *lruCache {
	if cap < 0 {
		cap = 0
	}
	return &lruCache{cap: cap, ll: list.New(), m: map[string]*list.Element{}}
}

func (c *lruCache) get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

func (c *lruCache) put(key string, val any) {
	if c.cap == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		el.Value.(*lruEntry).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.m[key] = c.ll.PushFront(&lruEntry{key, val})
	for c.ll.Len() > c.cap {
		el := c.ll.Back()
		c.ll.Remove(el)
		delete(c.m, el.Value.(*lruEntry).key)
	}
}

// Len reports live entries (tests).
func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

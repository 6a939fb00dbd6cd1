package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"ivnt/internal/engine"
	"ivnt/internal/query"
	"ivnt/internal/relation"
	"ivnt/internal/segstore"
	"ivnt/internal/serve"
	"ivnt/internal/telemetry"
)

const (
	tenant  = "bench"
	relName = "trace"
)

// service is the query service over one sealed store, listening on
// loopback, with the single keep-alive client of the closed loop.
type service struct {
	srv    *serve.Server
	store  *segstore.Store
	hs     *http.Server
	served chan error
	url    string
	client *http.Client

	closeOnce sync.Once
	closeErr  error
}

// startService serves dir through serve.Server.Handler() on an
// ephemeral loopback port. A non-nil tracer becomes the server's, so
// every query it serves records a serve.query span. Stop it with close.
func startService(dir string, tracer *telemetry.Tracer) (*service, error) {
	srv := &serve.Server{
		Exec: engine.NewLocal(0),
		Catalog: serve.NewCatalog(&serve.Config{Tenants: map[string]*serve.TenantConfig{
			tenant: {Relations: map[string]string{relName: dir}},
		}}, segstore.Options{}),
		Tracer: tracer,
	}
	st, err := srv.Catalog.Store(tenant, relName)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{
		srv:    srv,
		store:  st,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String() + "/query?nocache=1",
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}},
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops the server and waits until its accept loop has returned.
// Closing again returns the first close's error.
func (s *service) close() error {
	s.closeOnce.Do(func() {
		s.client.CloseIdleConnections()
		s.closeErr = s.hs.Close()
		if err := <-s.served; !errors.Is(err, http.ErrServerClosed) && s.closeErr == nil {
			s.closeErr = err
		}
	})
	return s.closeErr
}

// post runs one statement over HTTP and returns the response body once
// it has been read in full.
func (s *service) post(sql string) ([]byte, error) {
	body, err := json.Marshal(map[string]string{"tenant": tenant, "sql": sql})
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// exec is one checked request: the round trip, then the check of its
// response against the statement, outside the timed interval. An error
// or a wrong result is a failed operation.
func (s *service) exec(st statement, tally *opTally) time.Duration {
	t0 := time.Now()
	body, err := s.post(st.sql)
	d := time.Since(t0)
	if err == nil {
		err = st.check(body)
	}
	tally.check(err == nil, "query %s: %v", st.sql, err)
	return d
}

// mix yields the closed loop's request sequence: rounds of mixRound,
// each class cycling through its statement pool.
type mix struct {
	pools map[string][]statement
	next  map[string]int
	i     int
}

func newMix(pools map[string][]statement) *mix {
	return &mix{pools: pools, next: map[string]int{}}
}

func (m *mix) nextStatement() statement {
	class := mixRound[m.i%len(mixRound)]
	m.i++
	pool := m.pools[class]
	st := pool[m.next[class]%len(pool)]
	m.next[class]++
	return st
}

// queryLatencies accumulates the closed loop's round trips (ms) per
// class, and the requests and the time they took in all its rounds.
type queryLatencies struct {
	ms      map[string][]float64
	n       int
	elapsed time.Duration
}

// perSecond is the closed loop's throughput: requests per second of
// round-trip time, the benchmark's own checks left out.
func (l *queryLatencies) perSecond() float64 {
	return float64(l.n) / l.elapsed.Seconds()
}

func newQueryLatencies() *queryLatencies {
	return &queryLatencies{ms: map[string][]float64{}}
}

// enough reports whether every class has at least min[class] samples.
func (l *queryLatencies) enough(min map[string]int) bool {
	for c, n := range min {
		if len(l.ms[c]) < n {
			return false
		}
	}
	return true
}

// round is one round of the closed loop: mixRound's requests from one
// client, each sent after the previous one returned and was checked,
// and each from a clean heap.
func (l *queryLatencies) round(s *service, m *mix, tally *opTally) {
	for range mixRound {
		st := m.nextStatement()
		runtime.GC()
		d := s.exec(st, tally)
		l.ms[st.class] = append(l.ms[st.class], ms(d))
		l.elapsed += d
		l.n++
	}
}

// tracedSources resolves the plan's relation to the store behind a
// timing wrapper, so query.Run's scan shows as a child span.
type tracedSources struct {
	store  *segstore.Store
	parent *telemetry.Span
}

func (t tracedSources) Source(rel string) (engine.ScanSource, error) {
	if rel != relName {
		return nil, fmt.Errorf("unknown relation %q", rel)
	}
	return &tracedStore{Store: t.store, parent: t.parent}, nil
}

// tracedStore times Scan. Embedding the *segstore.Store forwards every
// other method, so each optional interface the store implements (the
// segment lister) is still seen by engine.ScanStage, which then takes
// the same path as on the bare store.
type tracedStore struct {
	*segstore.Store
	parent *telemetry.Span
}

func (t *tracedStore) Scan(ctx context.Context, pd engine.Pushdown) (*relation.Relation, error) {
	sp := t.parent.Child("segstore.scan")
	defer sp.End()
	return t.Store.Scan(ctx, pd)
}

// tracedRequest makes one request of the mix three times, once through
// each layer's public entry point: the HTTP round trip (inside which
// the server records its serve.query span around Server.Query's work),
// query.Parse + query.Compile, and query.Run (whose store scan is timed
// by tracedStore). The round trip and query.Run each start from a clean
// heap, as the untraced requests do. It checks the HTTP response,
// returns the row count query.Run saw, and the fraction of segments the
// plan's pushdown keeps.
func tracedRequest(ctx context.Context, s *service, st statement, req *telemetry.Span) (runRows int, kept float64, err error) {
	runtime.GC()
	sp := req.Child("http.roundtrip")
	body, err := s.post(st.sql)
	sp.End()
	if err == nil {
		err = st.check(body)
	}
	if err != nil {
		return 0, 0, fmt.Errorf("http: %w", err)
	}

	sp = req.Child("query.plan")
	q, err := query.Parse(st.sql)
	var p *query.Plan
	if err == nil {
		p, err = query.Compile(q, func(string) (relation.Schema, error) { return s.store.ScanSchema(), nil })
	}
	sp.End()
	if err != nil {
		return 0, 0, err
	}

	runtime.GC()
	sp = req.Child("query.run")
	res, err := query.Run(ctx, s.srv.Exec, tracedSources{store: s.store, parent: sp}, p, s.srv.PlanConfig)
	sp.End()
	if err != nil {
		return 0, 0, err
	}

	pd, err := engine.FoldPushdown(s.store.ScanSchema(), p.ScanOps)
	if err != nil {
		return 0, 0, err
	}
	refs, err := s.store.Segments(pd)
	if err != nil {
		return 0, 0, err
	}
	live := 0
	for _, r := range refs {
		if !r.Pruned {
			live++
		}
	}
	return res.Rel.NumRows(), float64(live) / float64(s.store.NumSegments()), nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

package main

import (
	"context"
	"encoding/json"
	"path/filepath"
	"testing"

	"ivnt/internal/telemetry"
)

// sealSmall runs one untraced pipeline pass over a small fleet into a
// fresh store and returns the pass summary with its sealed rows.
func sealSmall(t *testing.T, dir string) (*fleet, *passOut) {
	t.Helper()
	f, err := generate(small, 11)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := newFramework(f)
	if err != nil {
		t.Fatal(err)
	}
	outs, st, err := runPass(context.Background(), fw, f, dir)
	if err != nil {
		t.Fatal(err)
	}
	p, err := summarizePass(outs, st, true)
	if err != nil {
		t.Fatal(err)
	}
	if p.sealedRows != p.reducedRows || p.sealedRows == 0 {
		t.Fatalf("sealed %d rows, reduced %d", p.sealedRows, p.reducedRows)
	}
	return f, p
}

// The reference results computed from the sealed rows must agree with
// what the query service returns, through Server.Query, over HTTP and
// through the traced request's query.Run; and each traced round trip
// must hold the server's serve.query span of that request.
func TestExpectedResultsMatchServer(t *testing.T) {
	dir := t.TempDir()
	_, p := sealSmall(t, dir)
	tr := telemetry.NewTracer()
	s, err := startService(dir, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.close(); err != nil {
			t.Error(err)
		}
	}()
	ctx := context.Background()
	nonEmpty, requests := 0, 0
	for _, c := range classes {
		for _, st := range statements(p.rows, p.motifSID, 5)[c] {
			resp, err := s.srv.Query(ctx, tenant, st.sql, true)
			if err != nil {
				t.Fatalf("%s: %v", st.sql, err)
			}
			body, err := json.Marshal(resp)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.check(body); err != nil {
				t.Errorf("%s: Server.Query: %v", st.sql, err)
			}
			if body, err := s.post(st.sql); err != nil || st.check(body) != nil {
				t.Errorf("%s: HTTP: %v / %v", st.sql, err, st.check(body))
			}
			req := tr.StartSpan("query.request")
			n, kept, err := tracedRequest(ctx, s, st, req)
			req.End()
			requests++
			if err != nil || n != st.expected {
				t.Errorf("%s: traced request: query.Run returned %d rows (%v), reference %d", st.sql, n, err, st.expected)
			}
			if c == classPoint && kept >= 0.5 {
				t.Errorf("%s: point query keeps %.2f of the segments; want sid pruning", st.sql, kept)
			}
			if st.expected > 0 {
				nonEmpty++
			}
		}
	}
	if nonEmpty == 0 {
		t.Fatalf("every statement expects zero rows; the reference is not exercised")
	}
	tree := newSpanTree(tr.Snapshot())
	tree.adopt("serve.query", "http.roundtrip")
	roots := tree.roots("query.request")
	if len(roots) != requests {
		t.Fatalf("%d request roots, want %d", len(roots), requests)
	}
	for _, root := range roots {
		rt, sq := tree.total(root, "http.roundtrip"), tree.total(root, "serve.query")
		if sq <= 0 || sq >= rt {
			t.Errorf("request %d: serve.query %v not inside round trip %v", root, sq, rt)
		}
	}
	if n := len(tree.roots("serve.query")); n != 0 {
		t.Errorf("%d serve.query spans left as roots", n)
	}
}

// A wrong group in the agg response must fail the check, not only a
// lost group.
func TestAggCheckComparesGroups(t *testing.T) {
	rows := &sealedRows{t: []float64{1, 2.5, 4}, sid: []string{"a", "a", "b"}}
	st := statements(rows, "a", 1)[classAgg][0]
	for _, tc := range []struct {
		body string
		ok   bool
	}{
		{`{"row_count":2,"rows":[["a",2,1,2.5],["b",1,4,4]]}`, true},
		{`{"row_count":2,"rows":[["a",2,1,2.5],["b",2,4,4]]}`, false},
		{`{"row_count":2,"rows":[["a",2,1,2.4],["b",1,4,4]]}`, false},
		{`{"row_count":1,"rows":[["a",2,1,2.5]]}`, false},
		{`{"row_count":2,"rows":[["a",2,1,2.5],["a",2,1,2.5]]}`, false},
	} {
		if err := st.check([]byte(tc.body)); (err == nil) != tc.ok {
			t.Errorf("%s: check = %v, want ok=%v", tc.body, err, tc.ok)
		}
	}
}

// The traced pass calls the layers one by one; it must produce exactly
// the framework's state tables and sealed rows.
func TestTracedPassMatchesFramework(t *testing.T) {
	root := t.TempDir()
	f, want := sealSmall(t, filepath.Join(root, "plain"))
	fw, err := newFramework(f)
	if err != nil {
		t.Fatal(err)
	}
	tr := telemetry.NewTracer()
	pass := tr.StartSpan("pipeline.pass")
	var counts layerCounts
	outs, st, err := tracedPass(context.Background(), fw, f, filepath.Join(root, "traced"), pass, &counts)
	pass.End()
	if err != nil {
		t.Fatal(err)
	}
	got, err := summarizePass(outs, st, false)
	if err != nil {
		t.Fatal(err)
	}
	if got.digest != want.digest || got.sealedRows != want.sealedRows || got.segments != want.segments {
		t.Fatalf("traced pass: digest %s, %d rows, %d segments; framework: %s, %d, %d",
			got.digest, got.sealedRows, got.segments, want.digest, want.sealedRows, want.segments)
	}
	tree := newSpanTree(tr.Snapshot())
	roots := tree.roots("pipeline.pass")
	if len(roots) != 1 {
		t.Fatalf("%d pass roots", len(roots))
	}
	for _, l := range pipelineLayers {
		if tree.busy(roots[0], l.span) <= 0 {
			t.Errorf("layer %s has no busy time", l.span)
		}
	}
	if counts.ksRows <= got.reducedRows {
		t.Errorf("interp rows %d not above reduced rows %d", counts.ksRows, got.reducedRows)
	}
}

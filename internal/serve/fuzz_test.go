package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"ivnt/internal/engine"
	"ivnt/internal/relation"
	"ivnt/internal/segstore"
)

// FuzzQueryHandler posts arbitrary bodies to /query over a small paged,
// dictionary-encoded store. Whatever the body, the server must not
// panic, must answer 200 or a 4xx, and every 200 must carry a Response
// that parses.
func FuzzQueryHandler(f *testing.F) {
	for _, sql := range []string{
		"SELECT * FROM trace",
		`SELECT ts, val FROM trace WHERE sid == "b" && ts >= 520 && ts < 600`,
		"SELECT sid, count(*) AS n, min(ts) AS lo, max(ts) AS hi FROM trace GROUP BY sid",
		"SELECT sid, mean(val) AS m FROM trace WHERE val > 1 GROUP BY sid ORDER BY sid LIMIT 2",
		"SELECT val * 2.0 + 1.0 AS x FROM trace WHERE ts < 10 ORDER BY x",
		"SELECT ts FROM trace WHERE ts / 0 > 1",
		"SELECT ts FROM nope",
		"SELECT (ts FROM trace",
	} {
		body, _ := json.Marshal(queryRequest{Tenant: "acme", SQL: sql})
		f.Add(body)
	}
	f.Add([]byte(`{"tenant":"nobody","sql":"SELECT ts FROM trace"}`))
	f.Add([]byte(`{"tenant":"acme","sql":7}`))
	f.Add([]byte(`{"tenant":"acme"`))
	f.Add([]byte{})

	dir := filepath.Join(f.TempDir(), "trace")
	st, err := segstore.Open(dir, traceSchema(), segstore.Options{Compress: true, Encodings: true})
	if err != nil {
		f.Fatal(err)
	}
	const n = segstore.PageRows + segstore.PageRows/2
	for seg, sid := range []string{"a", "b"} {
		rows := make([]relation.Row, n)
		for i := range rows {
			rows[i] = relation.Row{
				relation.Int(int64(seg*n + i)),
				relation.Float(float64((i * 7) % 5)),
				relation.Str(fmt.Sprintf("%s%d", sid, i%3)),
			}
		}
		if err := st.AppendSegment(rows); err != nil {
			f.Fatal(err)
		}
	}
	s := &Server{
		Exec:    engine.NewLocal(2),
		Catalog: NewCatalog(&Config{Tenants: map[string]*TenantConfig{"acme": {Relations: map[string]string{"trace": dir}}}}, segstore.Options{}),
	}
	h := s.Handler()

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		switch {
		case rec.Code == http.StatusOK:
			var r Response
			if err := json.Unmarshal(rec.Body.Bytes(), &r); err != nil {
				t.Fatalf("200 body does not parse: %v\n%.300s", err, rec.Body)
			}
		case rec.Code < 400 || rec.Code > 499:
			t.Fatalf("HTTP %d for body %q: %.300s", rec.Code, body, rec.Body)
		}
	})
}

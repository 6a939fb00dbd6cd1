package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"ivnt/internal/gen"
	"ivnt/internal/relation"
	"ivnt/internal/rules"
	"ivnt/internal/trace"
)

// workload is one fleet the chain runs on. Both workloads run every
// phase (pipeline + seal, served queries, mining); they differ in the
// data's shape, which moves the work between layers.
type workload struct {
	name string
	spec gen.DatasetSpec
	// journeys × examples trace rows per fleet.
	journeys, examples int
	// signals selects the first n signal ids (Table 6's focused
	// extraction); 0 selects every signal with the paper's default
	// configuration.
	signals int
}

var workloads = []workload{
	{name: "fleet-syn", spec: gen.SYN, journeys: 6, examples: 50_000},
	{name: "fleet-focused", spec: gen.LIG, journeys: 12, examples: 50_000, signals: 9},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// fleet is the generated input of one run.
type fleet struct {
	catalog  *rules.Catalog
	config   *rules.DomainConfig
	journeys []*trace.Trace
	rows     int
}

// generate builds the fleet for a seed. Every journey is recorded on
// the same vehicle architecture — one message layout and one catalog,
// as in a series fleet — so the seed moves the signal values and the
// event timing, not which signals exist or how fast they are sent.
// That keeps per-signal row counts, and with them the cost of each
// layer, comparable across seeds.
func generate(w workload, seed int64) (*fleet, error) {
	d := gen.Build(w.spec)
	cfg := d.DefaultConfig()
	if w.signals > 0 {
		cfg = &rules.DomainConfig{
			Name:        w.spec.Name,
			SIDs:        d.SelectSIDs(w.signals),
			Constraints: []rules.Constraint{rules.ChangeConstraint("*")},
		}
		if err := cfg.Normalize(); err != nil {
			return nil, err
		}
	}
	f := &fleet{catalog: d.Catalog, config: cfg}
	for j := 0; j < w.journeys; j++ {
		d.Spec.Seed = journeySeed(seed, j)
		tr := d.Generate(w.examples)
		f.journeys = append(f.journeys, tr)
		f.rows += tr.Len()
	}
	return f, nil
}

func journeySeed(seed int64, j int) int64 {
	return seed*1_000_003 + int64(j)*7919 + 17
}

// fingerprint hashes every trace tuple, so repeated set-ups can be
// checked to produce identical input.
func (f *fleet) fingerprint() string {
	h := sha256.New()
	var buf [8]byte
	for _, tr := range f.journeys {
		for _, k := range tr.Tuples {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(k.T))
			h.Write(buf[:])
			binary.LittleEndian.PutUint32(buf[:4], k.MsgID)
			h.Write(buf[:4])
			h.Write([]byte(k.Channel))
			h.Write(k.Payload)
		}
		h.Write([]byte{0xff})
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// Query classes of the served mix. Each class is homogeneous in cost:
// every point query reads the same signal, so its latency percentiles
// describe one distribution rather than the cliff between signals of
// different kinds.
const (
	classPoint = "point"
	classAgg   = "agg"
	classScan  = "scan"
)

var classes = []string{classPoint, classAgg, classScan}

// mixRound is one round of the closed loop: point : agg : scan = 4:1:1.
var mixRound = []string{classPoint, classPoint, classAgg, classPoint, classPoint, classScan}

// Pool sizes: how many distinct statements of each class a run cycles
// through. Statements repeat, so after the warm-up round the plan cache
// answers every one; ?nocache=1 keeps every request executing.
const (
	pointPool = 24
	scanPool  = 6
	// pointWindow is the point class's time window in seconds; a scan
	// window spans scanRows rows of the store on average.
	pointWindow = 2.0
	scanRows    = 3000
)

// statement is one query of the mix with the result the store must
// return for it: its row count, and for the agg class every group.
type statement struct {
	class    string
	sql      string
	expected int
	groups   map[string]group
}

// group is one row of the agg class: a signal's row count and the
// least and greatest t among its rows.
type group struct {
	n          int
	tMin, tMax float64
}

// check compares a /query response body with the statement's expected
// result.
func (st statement) check(body []byte) error {
	var resp struct {
		RowCount int             `json:"row_count"`
		Rows     json.RawMessage `json:"rows"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if resp.RowCount != st.expected {
		return fmt.Errorf("%d rows, want %d", resp.RowCount, st.expected)
	}
	if st.groups == nil {
		return nil
	}
	var rows []json.RawMessage
	if err := json.Unmarshal(resp.Rows, &rows); err != nil {
		return err
	}
	if len(rows) != len(st.groups) {
		return fmt.Errorf("%d agg rows, want %d", len(rows), len(st.groups))
	}
	seen := map[string]bool{}
	for _, raw := range rows {
		var sid string
		var g group
		if err := json.Unmarshal(raw, &[]any{&sid, &g.n, &g.tMin, &g.tMax}); err != nil {
			return fmt.Errorf("agg row %s: %w", raw, err)
		}
		if want, ok := st.groups[sid]; !ok || seen[sid] || want != g {
			return fmt.Errorf("agg row %s, want %+v once", raw, want)
		}
		seen[sid] = true
	}
	return nil
}

// sealedRows is what the benchmark keeps of the sealed store to compute
// expected results: the t and sid columns of every sealed row.
type sealedRows struct {
	t   []float64
	sid []string
}

func (s *sealedRows) add(rows []relation.Row, tIdx, sidIdx int) {
	for _, r := range rows {
		s.t = append(s.t, r[tIdx].AsFloat())
		s.sid = append(s.sid, r[sidIdx].AsString())
	}
}

// count is the reference filter: rows with sid == sid (any sid when
// empty) and lo ≤ t < hi.
func (s *sealedRows) count(sid string, lo, hi float64) int {
	n := 0
	for i, t := range s.t {
		if t >= lo && t < hi && (sid == "" || s.sid[i] == sid) {
			n++
		}
	}
	return n
}

// groups is the reference GROUP BY sid with count, min(t) and max(t).
func (s *sealedRows) groups() map[string]group {
	out := map[string]group{}
	for i, t := range s.t {
		g, ok := out[s.sid[i]]
		if !ok {
			g = group{tMin: t, tMax: t}
		}
		g.n++
		g.tMin, g.tMax = math.Min(g.tMin, t), math.Max(g.tMax, t)
		out[s.sid[i]] = g
	}
	return out
}

// statements derives the query pools of a run from the seed and the
// sealed rows: point queries on pointSID in 2 s windows, one GROUP BY
// over the whole store, and scans over all signals in windows sized to
// return about scanRows rows. Window bounds are rounded to milliseconds
// and parsed back, so the reference filter compares exactly the floats
// the engine compares.
func statements(rows *sealedRows, pointSID string, seed int64) map[string][]statement {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, t := range rows.t {
		lo, hi = math.Min(lo, t), math.Max(hi, t)
	}
	rng := rand.New(rand.NewSource(seed*31 + 5))
	window := func(width float64) (float64, float64) {
		a := roundMS(lo + rng.Float64()*math.Max(hi-lo-width, 0))
		return a, roundMS(a + width)
	}
	out := map[string][]statement{}
	for i := 0; i < pointPool; i++ {
		a, b := window(pointWindow)
		out[classPoint] = append(out[classPoint], statement{
			class:    classPoint,
			sql:      fmt.Sprintf("SELECT t, v FROM trace WHERE sid == %q && t >= %s && t < %s", pointSID, fmtF(a), fmtF(b)),
			expected: rows.count(pointSID, a, b),
		})
	}
	groups := rows.groups()
	out[classAgg] = []statement{{
		class:    classAgg,
		sql:      "SELECT sid, count(*) AS n, min(t) AS t_min, max(t) AS t_max FROM trace GROUP BY sid",
		expected: len(groups),
		groups:   groups,
	}}
	scanWidth := (hi - lo) * scanRows / math.Max(float64(len(rows.t)), 1)
	for i := 0; i < scanPool; i++ {
		a, b := window(scanWidth)
		out[classScan] = append(out[classScan], statement{
			class:    classScan,
			sql:      fmt.Sprintf("SELECT t, sid, v FROM trace WHERE t >= %s && t < %s", fmtF(a), fmtF(b)),
			expected: rows.count("", a, b),
		})
	}
	return out
}

func roundMS(x float64) float64 {
	v, _ := strconv.ParseFloat(fmtF(x), 64)
	return v
}

func fmtF(x float64) string { return strconv.FormatFloat(x, 'f', 3, 64) }

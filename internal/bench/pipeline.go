package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"ivnt/internal/engine"
	"ivnt/internal/relation"
)

// PipelineOptions tune the pipeline experiment.
type PipelineOptions struct {
	// Rows in the measured partition; default 8192.
	Rows int
	// Target wall time per workload measurement; default 200ms.
	Target time.Duration
}

func (o PipelineOptions) withDefaults() PipelineOptions {
	if o.Rows <= 0 {
		o.Rows = 8192
	}
	if o.Target <= 0 {
		o.Target = 200 * time.Millisecond
	}
	return o
}

// PipelineResult is one workload measured through StagePipeline.Apply:
// ns/row and allocs/row per op shape.
type PipelineResult struct {
	Workload     string
	Rows         int
	NsPerRow     float64
	AllocsPerRow float64
}

// pipelineSchema is the measured trace-stream shape: timestamp, bus
// id, message id, payload bytes, a decoded signal value and a per-row
// interpretation rule (a small set of distinct rules, as a broadcast
// rule table would produce).
func pipelineSchema() relation.Schema {
	return relation.NewSchema(
		relation.Column{Name: "t", Kind: relation.KindFloat},
		relation.Column{Name: "bid", Kind: relation.KindString},
		relation.Column{Name: "mid", Kind: relation.KindInt},
		relation.Column{Name: "l", Kind: relation.KindBytes},
		relation.Column{Name: "v", Kind: relation.KindFloat},
		relation.Column{Name: "rule", Kind: relation.KindString},
	)
}

func pipelineRows(n int) []relation.Row {
	rng := rand.New(rand.NewSource(42))
	rules := []string{
		"v * 2.0 + byteat(l, 0)",
		"coalesce(v, 0.0) - byteat(l, 1)",
		"iff(mid == 3, v, 0.0 - v)",
	}
	rows := make([]relation.Row, n)
	for i := range rows {
		v := relation.Float(rng.Float64() * 100)
		if rng.Intn(4) == 0 {
			v = relation.Null()
		}
		rows[i] = relation.Row{
			relation.Float(float64(i) * 0.001),
			relation.Str(fmt.Sprintf("bus%d", i%2)),
			relation.Int(int64(i % 5)),
			relation.Bytes([]byte{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))}),
			v,
			relation.Str(rules[i%len(rules)]),
		}
	}
	return rows
}

func pipelineJoinTable() *relation.Relation {
	s := relation.NewSchema(
		relation.Column{Name: "rmid", Kind: relation.KindInt},
		relation.Column{Name: "sid", Kind: relation.KindString},
		relation.Column{Name: "scale", Kind: relation.KindFloat},
	)
	rows := make([]relation.Row, 5)
	for i := range rows {
		rows[i] = relation.Row{
			relation.Int(int64(i)),
			relation.Str(fmt.Sprintf("signal-%d", i)),
			relation.Float(0.5 + float64(i)*0.25),
		}
	}
	return relation.FromRows(s, rows)
}

// pipelineWorkloads are the measured op shapes: one workload per
// kernel for per-op columns, plus the fused Filter→Project→AddColumn
// chain.
func pipelineWorkloads() []struct {
	Name string
	Ops  []engine.OpDesc
} {
	return []struct {
		Name string
		Ops  []engine.OpDesc
	}{
		{"filter", []engine.OpDesc{engine.Filter("mid != 2 && byteat(l, 0) < 128")}},
		{"project", []engine.OpDesc{engine.Project("t", "mid", "v")}},
		{"addcolumn", []engine.OpDesc{engine.AddColumn("b0", relation.KindInt, "byteat(l, 0)")}},
		{"evalrule", []engine.OpDesc{engine.EvalRule("rv", relation.KindFloat, "rule")}},
		{"broadcast-join", []engine.OpDesc{engine.BroadcastJoin(pipelineJoinTable(), []string{"mid"}, []string{"rmid"})}},
		{"sortwithin", []engine.OpDesc{engine.SortWithin("mid", "t")}},
		{"fused-filter-project-addcolumn", []engine.OpDesc{
			engine.Filter("mid != 2 && byteat(l, 0) < 192"),
			engine.Project("t", "mid", "l", "v"),
			engine.AddColumn("b0", relation.KindInt, "byteat(l, 0)"),
			engine.AddColumn("x", relation.KindFloat, "coalesce(v, 0.0) * 0.5 + b0"),
		}},
	}
}

// measurePath times one apply function over the partition until the
// target wall time is reached, reporting ns/row and allocs/row (from
// the runtime's monotonic Mallocs counter, so background GC does not
// distort it).
func measurePath(part []relation.Row, target time.Duration, apply func([]relation.Row) ([]relation.Row, error)) (nsPerRow, allocsPerRow float64, err error) {
	// Warm-up: faults pages, fills the rule cache and sizes sync.Pool
	// scratch, and gives a per-iteration estimate.
	t0 := time.Now()
	if _, err := apply(part); err != nil {
		return 0, 0, err
	}
	per := time.Since(t0)
	iters := 3
	if per > 0 {
		if n := int(target / per); n > iters {
			iters = n
		}
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := apply(part); err != nil {
			return 0, 0, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)

	denom := float64(iters) * float64(len(part))
	return float64(elapsed.Nanoseconds()) / denom, float64(m1.Mallocs-m0.Mallocs) / denom, nil
}

// Pipeline measures every workload through StagePipeline.Apply — the
// "pipeline" section of BENCH_engine.json.
func Pipeline(opts PipelineOptions) ([]*PipelineResult, error) {
	opts = opts.withDefaults()
	schema := pipelineSchema()
	part := pipelineRows(opts.Rows)

	var results []*PipelineResult
	for _, w := range pipelineWorkloads() {
		pipe, err := engine.NewStagePipeline(schema, w.Ops)
		if err != nil {
			return nil, fmt.Errorf("pipeline %s: %w", w.Name, err)
		}
		ns, allocs, err := measurePath(part, opts.Target, pipe.Apply)
		if err != nil {
			return nil, fmt.Errorf("pipeline %s: %w", w.Name, err)
		}
		results = append(results, &PipelineResult{Workload: w.Name, Rows: opts.Rows, NsPerRow: ns, AllocsPerRow: allocs})
	}
	return results, nil
}

// FormatPipeline renders pipeline results as an aligned table. See
// docs/PERFORMANCE.md for how to read the columns.
func FormatPipeline(results []*PipelineResult) string {
	var b strings.Builder
	b.WriteString("Pipeline: per-op ns/row and allocs/row through StagePipeline.Apply\n")
	fmt.Fprintf(&b, "%-32s %6s %10s %12s\n", "workload", "rows", "ns/row", "allocs/row")
	for _, r := range results {
		fmt.Fprintf(&b, "%-32s %6d %10.1f %12.4f\n", r.Workload, r.Rows, r.NsPerRow, r.AllocsPerRow)
	}
	return b.String()
}

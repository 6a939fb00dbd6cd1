package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"ivnt/internal/engine"
	"ivnt/internal/relation"
	"ivnt/internal/rules"
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

// pipelineSamples is the number of timed samples taken per workload,
// after one warm-up run; results report their quartiles.
const pipelineSamples = 9

// Quartiles are the 25th, 50th and 75th percentiles of a workload's
// samples.
type Quartiles struct {
	P25, P50, P75 float64
}

// PipelineResult is one workload measured through StagePipeline.Apply:
// ns/row and allocs/row per op shape, as quartiles over
// pipelineSamples samples.
type PipelineResult struct {
	Workload     string
	Rows         int
	Samples      int
	NsPerRow     Quartiles
	AllocsPerRow Quartiles
}

// pipelineSchema is the measured trace-stream shape: timestamp, bus
// id, message id, payload bytes and a decoded signal value.
func pipelineSchema() relation.Schema {
	return relation.NewSchema(
		relation.Column{Name: "t", Kind: relation.KindFloat},
		relation.Column{Name: "bid", Kind: relation.KindString},
		relation.Column{Name: "mid", Kind: relation.KindInt},
		relation.Column{Name: "l", Kind: relation.KindBytes},
		relation.Column{Name: "v", Kind: relation.KindFloat},
	)
}

func pipelineRows(n int) []relation.Row {
	rng := rand.New(rand.NewSource(42))
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

// pipelineTranslations interpret the pipeline rows: two signals per
// message id on bus0, none on bus1, so half the rows are preselected
// away and the rest fan out to two K_s rows each.
func pipelineTranslations() []rules.Translation {
	exprs := []string{
		"ubits(lrel, 0, 8) * 0.5 + 1.0",
		"(ubits(lrel, 8, 8) - 40) / 2.0",
		"lookup(ubits(lrel, 0, 2), '0=off;1=on;2=err')",
		"sbits(lrel, 4, 12) * 0.1",
	}
	var ts []rules.Translation
	for mid := 0; mid < 5; mid++ {
		for k := 0; k < 2; k++ {
			ts = append(ts, rules.Translation{
				SID: fmt.Sprintf("signal-%d-%d", mid, k), Channel: "bus0", MsgID: uint32(mid),
				FirstByte: k, LastByte: k + 1, Rule: exprs[(mid+k)%len(exprs)],
			})
		}
	}
	return ts
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
		{"interpret", []engine.OpDesc{engine.Interpret(pipelineTranslations())}},
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

// measurePath times one apply function over the partition: one
// warm-up run (faults pages, sizes sync.Pool scratch and gives a
// per-iteration estimate), then pipelineSamples samples of enough
// iterations to fill target/pipelineSamples each. Allocations come from
// the runtime's monotonic Mallocs counter, so background GC does not
// distort them.
func measurePath(part []relation.Row, target time.Duration, apply func([]relation.Row) ([]relation.Row, error)) (nsPerRow, allocsPerRow Quartiles, err error) {
	t0 := time.Now()
	if _, err := apply(part); err != nil {
		return Quartiles{}, Quartiles{}, err
	}
	iters := 1
	if per := time.Since(t0); per > 0 {
		iters = max(1, int(target/pipelineSamples/per))
	}
	denom := float64(iters) * float64(len(part))
	ns := make([]float64, pipelineSamples)
	allocs := make([]float64, pipelineSamples)
	for k := range ns {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := apply(part); err != nil {
				return Quartiles{}, Quartiles{}, err
			}
		}
		ns[k] = float64(time.Since(start).Nanoseconds()) / denom
		runtime.ReadMemStats(&m1)
		allocs[k] = float64(m1.Mallocs-m0.Mallocs) / denom
	}
	return quartilesOf(ns), quartilesOf(allocs), nil
}

// quartilesOf returns the quartiles of xs by linear interpolation
// between order statistics; xs is sorted in place.
func quartilesOf(xs []float64) Quartiles {
	sort.Float64s(xs)
	at := func(q float64) float64 {
		pos := q * float64(len(xs)-1)
		lo := int(pos)
		if lo+1 >= len(xs) {
			return xs[lo]
		}
		return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
	}
	return Quartiles{P25: at(0.25), P50: at(0.5), P75: at(0.75)}
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
		results = append(results, &PipelineResult{Workload: w.Name, Rows: opts.Rows, Samples: pipelineSamples, NsPerRow: ns, AllocsPerRow: allocs})
	}
	return results, nil
}

// FormatPipeline renders pipeline results as an aligned table. See
// docs/PERFORMANCE.md for how to read the columns.
func FormatPipeline(results []*PipelineResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Pipeline: per-op ns/row and allocs/row through StagePipeline.Apply (median [p25, p75] of %d samples)\n", pipelineSamples)
	fmt.Fprintf(&b, "%-32s %6s %26s %30s\n", "workload", "rows", "ns/row", "allocs/row")
	for _, r := range results {
		fmt.Fprintf(&b, "%-32s %6d %8.1f [%7.1f, %7.1f] %10.4f [%7.4f, %7.4f]\n", r.Workload, r.Rows,
			r.NsPerRow.P50, r.NsPerRow.P25, r.NsPerRow.P75,
			r.AllocsPerRow.P50, r.AllocsPerRow.P25, r.AllocsPerRow.P75)
	}
	return b.String()
}

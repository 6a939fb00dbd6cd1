package bench

import (
	"fmt"
	"strings"
	"time"

	"ivnt/internal/engine"
	"ivnt/internal/memgov"
	"ivnt/internal/telemetry"
)

// SpillOptions tune the memory-governed degradation experiment.
type SpillOptions struct {
	// Rows in the measured partition; default 20000.
	Rows int
	// Budget for the governed run; default footprint/4, low enough that
	// every sort and aggregation takes the external path.
	Budget int64
	// Target wall time per measurement; default 200ms.
	Target time.Duration
}

func (o SpillOptions) withDefaults() SpillOptions {
	if o.Rows <= 0 {
		o.Rows = 20000
	}
	if o.Target <= 0 {
		o.Target = 200 * time.Millisecond
	}
	return o
}

// SpillResult is one governed workload measured twice: unlimited (the
// in-memory kernel) and under a budget that forces the external
// algorithm. Slowdown is the price of degrading to disk instead of
// OOMing; SpillEvents/SpillBytes come from the engine_spills_total and
// engine_spill_bytes_total counter deltas, per governed run.
type SpillResult struct {
	Workload string
	Rows     int
	Budget   int64

	InMemNsPerRow float64
	SpillNsPerRow float64
	Slowdown      float64

	SpillEvents int64
	SpillBytes  int64
	HighWater   int64
}

// spillWorkloads are the governed kernels: per-partition sort and
// grace-hash partial aggregation over the pipeline trace shape.
func spillWorkloads() []struct {
	Name string
	Ops  []engine.OpDesc
} {
	return []struct {
		Name string
		Ops  []engine.OpDesc
	}{
		{"sortwithin", []engine.OpDesc{engine.SortWithin("mid", "t")}},
		{"partialagg", []engine.OpDesc{engine.PartialAgg(
			[]string{"bid", "mid"},
			[]engine.AggSpec{
				{Fn: engine.AggCount, As: "n"},
				{Fn: engine.AggSum, Col: "v", As: "vsum"},
				{Fn: engine.AggMean, Col: "v", As: "vmean"},
			})}},
	}
}

// Spill measures the memory-governed kernels with and without a budget
// — the "spill" section of BENCH_engine.json.
func Spill(opts SpillOptions) ([]*SpillResult, error) {
	opts = opts.withDefaults()
	schema := pipelineSchema()
	part := pipelineRows(opts.Rows)
	budget := opts.Budget
	if budget <= 0 {
		budget = engine.RowsFootprint(part) / 4
	}

	g := memgov.Default()
	oldBudget := g.Budget()
	defer g.SetBudget(oldBudget)
	reg := telemetry.Default()

	var results []*SpillResult
	for _, w := range spillWorkloads() {
		pipe, err := engine.NewStagePipeline(schema, w.Ops)
		if err != nil {
			return nil, fmt.Errorf("spill %s: %w", w.Name, err)
		}

		g.SetBudget(0) // unlimited: the in-memory kernel
		inMemNs, _, err := measurePath(part, opts.Target, pipe.Apply)
		if err != nil {
			return nil, fmt.Errorf("spill %s (in-mem): %w", w.Name, err)
		}

		g.SetBudget(budget)
		g.ResetHighWater()
		eventsBefore := reg.CounterValue("engine_spills_total")
		bytesBefore := reg.CounterValue("engine_spill_bytes_total")
		spillNs, _, err := measurePath(part, opts.Target, pipe.Apply)
		if err != nil {
			return nil, fmt.Errorf("spill %s (governed): %w", w.Name, err)
		}
		events := reg.CounterValue("engine_spills_total") - eventsBefore
		bytes := reg.CounterValue("engine_spill_bytes_total") - bytesBefore
		if events == 0 {
			return nil, fmt.Errorf("spill %s: budget %d did not force the external path", w.Name, budget)
		}

		r := &SpillResult{
			Workload:      w.Name,
			Rows:          opts.Rows,
			Budget:        budget,
			InMemNsPerRow: inMemNs.P50,
			SpillNsPerRow: spillNs.P50,
			SpillEvents:   events,
			SpillBytes:    bytes,
			HighWater:     g.HighWater(),
		}
		if inMemNs.P50 > 0 {
			r.Slowdown = spillNs.P50 / inMemNs.P50
		}
		results = append(results, r)
	}
	return results, nil
}

// FormatSpill renders spill results as an aligned table. See
// docs/MEMORY.md for how to read the columns.
func FormatSpill(results []*SpillResult) string {
	var b strings.Builder
	b.WriteString("Spill: governed kernels under a memory budget vs unlimited (external merge sort / grace hash agg)\n")
	fmt.Fprintf(&b, "%-12s %7s %12s %13s %13s %9s %8s %13s %12s\n",
		"workload", "rows", "budget [B]", "mem ns/row", "spill ns/row", "slowdown", "spills", "spilled [B]", "highwater")
	for _, r := range results {
		fmt.Fprintf(&b, "%-12s %7d %12d %13.1f %13.1f %8.2fx %8d %13d %12d\n",
			r.Workload, r.Rows, r.Budget, r.InMemNsPerRow, r.SpillNsPerRow, r.Slowdown,
			r.SpillEvents, r.SpillBytes, r.HighWater)
	}
	return b.String()
}

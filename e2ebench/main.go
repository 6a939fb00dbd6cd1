// Command e2ebench measures the repository's real chain — fleet
// pipeline (Algorithm 1) → sealed segment store → served queries over
// HTTP → mining — on one workload per process, and checks every output
// it produces. See README.md for the workloads, the metrics and the
// rules that keep the numbers steady.
//
//	go run . -workload fleet-syn -seed 1 -seconds 30 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// per-layer ones of a separate traced run, which also writes a span
// file loadable in Perfetto.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: fleet-syn or fleet-focused")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 30, "measured seconds per run, split across the phases")
		traced  = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		out     = flag.String("out", filepath.Join(".bench_build", "e2ebench-out"), "directory for stores, reports and span files")
	)
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: bad arguments (%v)\n", err)
		flag.Usage()
		os.Exit(2)
	}
	if err := run(context.Background(), w, *seed, *seconds, *traced == 1, *out); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, w workload, seed int64, seconds float64, traced bool, out string) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	r := &runner{w: w, seed: seed, seconds: seconds, work: work, res: newResult()}
	if traced {
		err = r.traced(ctx)
	} else {
		err = r.untraced(ctx)
	}
	if err != nil {
		return err
	}
	for k, v := range environment(work) {
		r.res.Env[k] = v
	}
	r.res.Env["workload"] = w.name
	r.res.Env["seed"] = strconv.FormatInt(seed, 10)
	r.res.Env["traced"] = strconv.FormatBool(traced)

	r.res.finish()
	stem := fmt.Sprintf("%s-seed%d-trace%d", w.name, seed, map[bool]int{false: 0, true: 1}[traced])
	if traced {
		if err := r.writeSpans(filepath.Join(out, stem+".spans.json")); err != nil {
			return err
		}
	}
	report, err := json.MarshalIndent(r.res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(out, stem+".report.json"), report, 0o644); err != nil {
		return err
	}
	return r.res.print(os.Stdout)
}

// metric is one reported number with the samples it was reduced from.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples summary `json:"samples"`
}

// result is a run's full record: the reported metrics with their
// spread, the operation tally, self times and the environment. Only
// the correctness fields and the metric values go on the last line.
type result struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]metric  `json:"metrics"`
	SelfMS    map[string]summary `json:"self_ms,omitempty"`
	// WallS holds the wall seconds of the phases whose metric is timed
	// in CPU seconds.
	WallS   map[string]summary `json:"wall_s,omitempty"`
	Digests map[string]string  `json:"digests"`
	Env     map[string]string  `json:"env"`
	tally   *opTally
	order   []string
}

func newResult() *result {
	return &result{Metrics: map[string]metric{}, WallS: map[string]summary{}, Digests: map[string]string{}, Env: map[string]string{}, tally: &opTally{}}
}

// set reports a metric whose value is the samples' median.
func (r *result) set(name, unit string, samples []float64) {
	r.setValue(name, unit, median(samples), samples)
}

// setValue reports a metric with an explicit value (a percentile, a
// ratio of medians, an exact count) and the samples behind it.
func (r *result) setValue(name, unit string, v float64, samples []float64) {
	if _, ok := r.Metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit, Samples: summarize(samples)}
}

// finish copies the operation tally into the result. A run is correct
// when it checked something and no check failed.
func (r *result) finish() {
	r.Attempted, r.Failed, r.Failures = r.tally.attempted, r.tally.failed, r.tally.failures
	r.Correct = r.Failed == 0 && r.Attempted > 0
}

// print writes the environment, the human-readable table, and last the
// one-line JSON result.
func (r *result) print(f *os.File) error {
	keys := make([]string, 0, len(r.Env))
	for k := range r.Env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(f, "env %-14s %s\n", k, r.Env[k])
	}
	fmt.Fprintf(f, "%-34s %14s %-7s %6s %12s %12s %12s\n", "metric", "value", "unit", "n", "q1", "median", "q3")
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(f, "%-34s %14.6g %-7s %6d %12.6g %12.6g %12.6g\n", name, m.Value, m.Unit, m.Samples.N, m.Samples.Q1, m.Samples.Median, m.Samples.Q3)
	}
	if len(r.SelfMS) > 0 {
		names := make([]string, 0, len(r.SelfMS))
		for n := range r.SelfMS {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(f, "%-34s %6s %12s (self time per span, ms)\n", "span", "n", "median")
		for _, n := range names {
			fmt.Fprintf(f, "%-34s %6d %12.6g\n", n, r.SelfMS[n].N, r.SelfMS[n].Median)
		}
	}
	for _, msg := range r.Failures {
		fmt.Fprintf(f, "FAILED %s\n", msg)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for n, m := range r.Metrics {
		last.Metrics[n] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(last)
	if err != nil {
		return fmt.Errorf("result line: %w", err)
	}
	_, err = fmt.Fprintf(f, "%s\n", line)
	return err
}

// opTally counts checked operations. A failed check is a failed
// operation; the first few messages are kept for the report.
type opTally struct {
	attempted, failed int
	failures          []string
}

func (t *opTally) check(ok bool, format string, args ...any) {
	t.attempted++
	if ok {
		return
	}
	t.failed++
	if len(t.failures) < 20 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

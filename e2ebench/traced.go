package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"sort"
	"time"

	"ivnt/internal/telemetry"
)

// The traced run's spans and the per-layer metric each one's busy time
// (wall time with at least one call of the layer in flight) becomes.
var (
	pipelineLayers = []struct{ span, metric string }{
		{"trace.to_relation", "trace.to_relation_s"},
		{"interp.extract", "interp.busy_s"},
		{"reduce.run", "reduce.busy_s"},
		{"branch.process", "branch.busy_s"},
		{"staterep.build", "staterep.busy_s"},
		{"segstore.seal", "segstore.seal_busy_s"},
	}
	miningLayers = []struct{ span, metric string }{
		{"mining.assoc", "mining.assoc_s"},
		{"mining.transition", "mining.transition_s"},
		{"mining.anomaly", "mining.anomaly_s"},
		{"mining.motif", "mining.motif_s"},
	}
)

// traced is the per-layer run, with the untraced run's phases in the
// same order. Each phase alternates untraced and traced samples, so the
// tracing overhead is measured under the same conditions as the layer
// times, and every traced sample must reproduce the untraced outputs
// exactly.
func (r *runner) traced(ctx context.Context) error {
	r.tracer = telemetry.NewTracer()
	if _, err := r.setup(); err != nil {
		return err
	}
	if err := r.warmPass(ctx); err != nil {
		return err
	}

	plain, traced, counts, err := r.pipelinePhase(ctx, 2)
	if err != nil {
		return err
	}
	var plainWall, tracedWall, allocMB, gcCPU []float64
	for _, ps := range plain {
		plainWall = append(plainWall, ps.wall)
		allocMB = append(allocMB, ps.runtime.allocBytes/(1<<20))
		gcCPU = append(gcCPU, ps.runtime.gcCPUSec)
	}
	r.res.set("go.gc_cpu_s", "s", gcCPU)
	r.res.set("go.alloc_mb", "MiB", allocMB)
	var interpRows, interpMB, keep, branchRows, states, segments, written []float64
	for i, ps := range traced {
		tracedWall = append(tracedWall, ps.wall)
		c, p := counts[i], ps.out
		interpRows = append(interpRows, float64(c.ksRows))
		interpMB = append(interpMB, c.interpAlloc/(1<<20))
		keep = append(keep, float64(p.reducedRows)/float64(c.ksRows))
		branchRows = append(branchRows, float64(p.reducedRows))
		n := 0
		for _, tb := range p.states {
			n += tb.NumRows()
		}
		states = append(states, float64(n))
		segments = append(segments, float64(p.segments))
		written = append(written, float64(p.storeBytes))
	}
	r.res.set("interp.rows_out", "rows", interpRows)
	r.res.set("interp.alloc_mb", "MiB", interpMB)
	r.res.set("reduce.keep_ratio", "ratio", keep)
	r.res.set("branch.rows_in", "rows", branchRows)
	r.res.set("staterep.states", "count", states)
	r.res.set("segstore.segments_sealed", "count", segments)
	r.res.set("segstore.bytes_written", "B", written)
	r.releaseFleet()

	// Queries. The server records a serve.query span for every query
	// it serves; the span tree files each one under the traced round
	// trip that contains it.
	s, m, err := r.startQueries()
	if err != nil {
		return err
	}
	defer s.close()
	hits0, misses0 := planCacheCounters()
	lat := queryPhase(s, m, r.budget(serveShare)/2, map[string]int{classPoint: minOtherQ, classAgg: minOtherQ, classScan: minOtherQ}, r.res.tally)
	hits, misses := planCacheCounters()
	hits, misses = hits-hits0, misses-misses0
	kept, rows := map[string][]float64{}, map[string][]float64{}
	start := time.Now()
	for k := 0; time.Since(start) < r.budget(serveShare)/2 || k < len(mixRound)*minOtherQ; k++ {
		st := m.nextStatement()
		req := r.tracer.StartSpan("query.request", telemetry.A("class", st.class), telemetry.A("request", k))
		n, keptRatio, err := tracedRequest(ctx, s, st, req)
		req.End()
		r.res.tally.check(err == nil && n == st.expected, "traced %s: query.Run returned %d rows (err %v), want %d", st.sql, n, err, st.expected)
		kept[st.class] = append(kept[st.class], keptRatio)
		rows[st.class] = append(rows[st.class], float64(n))
	}
	if err := s.close(); err != nil {
		return err
	}

	var minePlain, mineTraced, mineRules []float64
	var want mineCounts
	if _, _, err := r.timedMine(&want, nil); err != nil {
		return err
	}
	start = time.Now()
	for i := 1; time.Since(start) < r.budget(mineShare) || len(mineTraced) < minMines; i++ {
		var pass *telemetry.Span
		if i%2 == 0 {
			pass = r.tracer.StartSpan("mining.pass", telemetry.A("pass", i))
		}
		cpu, _, err := r.timedMine(&want, pass)
		if err != nil {
			return err
		}
		if pass == nil {
			minePlain = append(minePlain, cpu)
		} else {
			mineTraced = append(mineTraced, cpu)
			mineRules = append(mineRules, float64(want.Rules))
		}
	}
	r.res.Digests["mining"] = fmt.Sprintf("%+v", want)

	r.spans = r.tracer.Snapshot()
	t := newSpanTree(r.spans)
	t.adopt("serve.query", "http.roundtrip")
	r.res.SelfMS = t.selfTimes()

	for _, l := range pipelineLayers {
		var v []float64
		for _, root := range t.roots("pipeline.pass") {
			v = append(v, t.busy(root, l.span).Seconds())
		}
		r.res.set(l.metric, "s", v)
	}
	for _, l := range miningLayers {
		var v []float64
		for _, root := range t.roots("mining.pass") {
			v = append(v, t.busy(root, l.span).Seconds())
		}
		r.res.set(l.metric, "s", v)
	}
	r.res.set("mining.rules", "count", mineRules)

	// Query layers per class. Server.Query takes its plan from the plan
	// cache, so its own work beyond query.Run is admission, the result
	// cache bookkeeping and rendering: serve self = serve.query −
	// query.Run. These are separate calls, so that is a difference of
	// medians. HTTP self = round trip − the serve.query span inside it,
	// per request: request and response encoding and decoding in the
	// handler and the client, and the loopback transfer.
	roundTrips := map[string][]float64{}
	for _, c := range classes {
		var rt, sq, plan, run, scan, serveSelf, httpSelf []float64
		for _, root := range t.roots("query.request") {
			if t.attr(root, "class") != c {
				continue
			}
			rt = append(rt, ms(t.total(root, "http.roundtrip")))
			sq = append(sq, ms(t.total(root, "serve.query")))
			plan = append(plan, ms(t.total(root, "query.plan")))
			run = append(run, ms(t.total(root, "query.run")))
			scan = append(scan, ms(t.total(root, "segstore.scan")))
			serveSelf = append(serveSelf, sq[len(sq)-1]-run[len(run)-1])
			httpSelf = append(httpSelf, rt[len(rt)-1]-sq[len(sq)-1])
		}
		roundTrips[c] = rt
		r.res.set("query.plan_ms."+c, "ms", plan)
		r.res.set("query.run_ms."+c, "ms", run)
		r.res.set("segstore.scan_ms."+c, "ms", scan)
		r.res.setValue("serve.self_ms."+c, "ms", median(sq)-median(run), serveSelf)
		r.res.set("http.self_ms."+c, "ms", httpSelf)
		r.res.set("query.rows_out."+c, "rows", rows[c])
		pruned := make([]float64, len(kept[c]))
		for i, k := range kept[c] {
			pruned[i] = 1 - k
		}
		r.res.set("segstore.pruned_ratio."+c, "ratio", pruned)
	}
	r.res.setValue("serve.plan_cache_hit_ratio", "ratio", hits/(hits+misses), nil)

	r.overhead("pipeline", tracedWall, plainWall)
	r.overhead("mine", mineTraced, minePlain)
	r.overhead("query", roundTrips[classPoint], lat.ms[classPoint])
	return nil
}

// overhead reports the tracing overhead of a phase: the ratio of the
// traced samples' median to the untraced samples' median. The spread
// is that of each traced sample over the untraced median.
func (r *runner) overhead(phase string, traced, plain []float64) {
	base := median(plain)
	ratios := make([]float64, len(traced))
	for i, v := range traced {
		ratios[i] = v / base
	}
	r.res.setValue("bench.trace_overhead."+phase, "ratio", median(traced)/base, ratios)
}

func planCacheCounters() (hits, misses float64) {
	reg := telemetry.Default()
	return float64(reg.CounterValue("serve_plan_cache_hits_total")), float64(reg.CounterValue("serve_plan_cache_misses_total"))
}

// writeSpans writes the traced run's spans as Chrome trace_event JSON.
func (r *runner) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := telemetry.WriteChromeTrace(w, r.spans); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanTree indexes a span snapshot by parent.
type spanTree struct {
	byID map[uint64]telemetry.SpanData
	kids map[uint64][]uint64
	top  []uint64 // root spans, in start order
}

func newSpanTree(spans []telemetry.SpanData) *spanTree {
	t := &spanTree{byID: map[uint64]telemetry.SpanData{}, kids: map[uint64][]uint64{}}
	for _, s := range spans {
		t.byID[s.ID] = s
		if s.Parent == 0 {
			t.top = append(t.top, s.ID)
		} else {
			t.kids[s.Parent] = append(t.kids[s.Parent], s.ID)
		}
	}
	return t
}

func (t *spanTree) roots(name string) []uint64 {
	var out []uint64
	for _, id := range t.top {
		if t.byID[id].Name == name {
			out = append(out, id)
		}
	}
	return out
}

// adopt files every root span named child under the latest-starting
// span named parent whose interval contains it, and drops the roots it
// finds no such parent for. The server's spans are roots of their own;
// with one closed-loop client at most one request is in flight, so
// containment in time identifies the round trip a server span belongs
// to. Server spans outside every traced round trip belong to untraced
// requests.
func (t *spanTree) adopt(child, parent string) {
	var parents []telemetry.SpanData
	for _, s := range t.byID {
		if s.Name == parent {
			parents = append(parents, s)
		}
	}
	sort.Slice(parents, func(i, j int) bool { return parents[i].Start.Before(parents[j].Start) })
	top := t.top[:0]
	for _, id := range t.top {
		s := t.byID[id]
		if s.Name != child {
			top = append(top, id)
			continue
		}
		i := sort.Search(len(parents), func(i int) bool { return parents[i].Start.After(s.Start) }) - 1
		if i >= 0 && !parents[i].End.Before(s.End) {
			s.Parent = parents[i].ID
			t.byID[id] = s
			t.kids[s.Parent] = append(t.kids[s.Parent], id)
		}
	}
	t.top = top
}

func (t *spanTree) attr(id uint64, key string) string {
	for _, a := range t.byID[id].Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// walk visits every span under id (id included), depth first.
func (t *spanTree) walk(id uint64, fn func(telemetry.SpanData)) {
	fn(t.byID[id])
	for _, k := range t.kids[id] {
		t.walk(k, fn)
	}
}

// total sums the durations of the spans named name under root.
func (t *spanTree) total(root uint64, name string) time.Duration {
	var d time.Duration
	t.walk(root, func(s telemetry.SpanData) {
		if s.Name == name {
			d += s.Duration()
		}
	})
	return d
}

// busy is the wall time during which at least one span named name under
// root was open: the union of their intervals.
func (t *spanTree) busy(root uint64, name string) time.Duration {
	var iv []interval
	t.walk(root, func(s telemetry.SpanData) {
		if s.Name == name {
			iv = append(iv, interval{s.Start, s.End})
		}
	})
	return union(iv)
}

// selfTimes reports, per span name (query spans per class), the self
// time summed within each root, summarized across roots. A span's self
// time is its duration minus the part of it its children cover.
func (t *spanTree) selfTimes() map[string]summary {
	samples := map[string][]float64{}
	for _, root := range t.top {
		suffix := ""
		if c := t.attr(root, "class"); c != "" {
			suffix = "." + c
		}
		perRoot := map[string]time.Duration{}
		t.walk(root, func(s telemetry.SpanData) {
			var iv []interval
			for _, k := range t.kids[s.ID] {
				ks := t.byID[k]
				iv = append(iv, interval{maxTime(ks.Start, s.Start), minTime(ks.End, s.End)})
			}
			perRoot[s.Name+suffix] += s.Duration() - union(iv)
		})
		for name, d := range perRoot {
			samples[name] = append(samples[name], ms(d))
		}
	}
	out := map[string]summary{}
	for name, v := range samples {
		out[name] = summarize(v)
	}
	return out
}

type interval struct{ start, end time.Time }

func union(iv []interval) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i].start.Before(iv[j].start) })
	var d time.Duration
	var cur interval
	for i, x := range iv {
		if !x.end.After(x.start) {
			continue
		}
		if i == 0 || cur.end.IsZero() || x.start.After(cur.end) {
			d += cur.end.Sub(cur.start)
			cur = x
			continue
		}
		if x.end.After(cur.end) {
			cur.end = x.end
		}
	}
	return d + cur.end.Sub(cur.start)
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

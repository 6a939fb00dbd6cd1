package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"ivnt/internal/core"
	"ivnt/internal/segstore"
	"ivnt/internal/telemetry"
)

// Phase shares of the measured seconds, and the least samples a phase
// takes whatever the budget. Every timing is a median over samples of
// one phase; each phase starts with a discarded warm-up.
const (
	pipelineShare = 0.45
	serveShare    = 0.4
	mineShare     = 0.15

	setupReps  = 5
	minPasses  = 5
	minMines   = 7
	minPoint   = 110 // p90 needs ≥100 samples (minTail beyond it)
	minOtherQ  = 22  // p50 needs ≥20
	maxFailing = 3   // consecutive failed passes before a phase gives up
)

type runner struct {
	w       workload
	seed    int64
	seconds float64
	work    string
	res     *result
	tracer  *telemetry.Tracer
	spans   []telemetry.SpanData

	f    *fleet
	fw   *core.Framework
	base *passOut // the warm-up pass: its store is served, its states mined
}

func (r *runner) budget(share float64) time.Duration {
	return time.Duration(r.seconds * share * float64(time.Second))
}

// setup generates the fleet setupReps times, each from a clean heap,
// and checks that every repetition yields the same input. Generation
// is single-threaded; each repetition is timed in process CPU seconds
// (its wall seconds go to the report).
func (r *runner) setup() ([]float64, error) {
	var cpu, wall []float64
	var first string
	for i := 0; i < setupReps; i++ {
		r.f = nil
		runtime.GC()
		c0, t0 := cpuSeconds(), time.Now()
		f, err := generate(r.w, r.seed)
		if err != nil {
			return nil, err
		}
		cpu, wall = append(cpu, cpuSeconds()-c0), append(wall, time.Since(t0).Seconds())
		fp := f.fingerprint()
		if i == 0 {
			first = fp
		}
		r.res.tally.check(fp == first, "setup %d: input fingerprint %s, first %s", i, fp, first)
		r.f = f
	}
	r.res.WallS["setup"] = summarize(wall)
	r.res.Digests["input"] = first
	fw, err := newFramework(r.f)
	r.fw = fw
	return cpu, err
}

// warmPass runs the discarded first pipeline pass. Its sealed store is
// the one the query phase serves and its state tables the ones the
// mining phase reads; every later pass must reproduce its digest.
func (r *runner) warmPass(ctx context.Context) error {
	runtime.GC()
	outs, st, err := runPass(ctx, r.fw, r.f, passDir(r.work, 0))
	if err != nil {
		return fmt.Errorf("warm-up pass: %w", err)
	}
	r.base, err = summarizePass(outs, st, true)
	if err != nil {
		return err
	}
	r.res.tally.check(r.base.sealedRows == r.base.reducedRows,
		"warm-up pass: sealed %d rows, reduced %d", r.base.sealedRows, r.base.reducedRows)
	r.res.Digests["state"] = r.base.digest
	return nil
}

// releaseFleet drops the input once the pipeline phase is over, so the
// query and mining phases run on a heap that holds only what they read.
func (r *runner) releaseFleet() {
	r.f, r.fw = nil, nil
	debug.FreeOSMemory()
}

// passSample is one timed pipeline pass.
type passSample struct {
	wall    float64 // seconds
	runtime runtimeDelta
	rssMiB  float64 // the pass's resident high-water mark
	out     *passOut
}

// timedPass runs one pipeline pass from a clean heap whose free pages
// have been returned to the OS, so every pass starts as a fresh
// extraction process would and its resident high-water mark is its
// own. It checks the pass against the warm-up pass and removes the
// pass's store afterwards.
func (r *runner) timedPass(ctx context.Context, i int, pass *telemetry.Span, counts *layerCounts) (passSample, error) {
	dir := passDir(r.work, i)
	defer os.RemoveAll(dir)
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		// Without the reset the high-water mark is the process's so far.
		r.res.Env["rss_reset"] = err.Error()
	}
	rt0 := readRuntime()
	t0 := time.Now()
	var outs []journeyOut
	var st *segstore.Store
	var err error
	if pass == nil {
		outs, st, err = runPass(ctx, r.fw, r.f, dir)
	} else {
		outs, st, err = tracedPass(ctx, r.fw, r.f, dir, pass, counts)
		pass.End()
	}
	ps := passSample{wall: time.Since(t0).Seconds(), runtime: readRuntime().sub(rt0)}
	if err != nil {
		r.res.tally.check(false, "pass %d: %v", i, err)
		return ps, err
	}
	if ps.rssMiB, err = peakRSSMiB(); err != nil {
		return ps, err
	}
	p, err := summarizePass(outs, st, false)
	if err != nil {
		return ps, err
	}
	r.res.tally.check(p.digest == r.base.digest && p.sealedRows == p.reducedRows && p.sealedRows == r.base.sealedRows,
		"pass %d (traced %v): digest %s sealed %d reduced %d; want digest %s sealed %d",
		i, pass != nil, p.digest, p.sealedRows, p.reducedRows, r.base.digest, r.base.sealedRows)
	ps.out = p
	return ps, nil
}

// pipelinePhase runs timed passes until the phase's budget has passed
// and it has at least minPasses. Every traceEvery-th pass is traced
// (0: none); it returns the untraced and the traced samples.
func (r *runner) pipelinePhase(ctx context.Context, traceEvery int) (plain, traced []passSample, counts []layerCounts, err error) {
	start, failing := time.Now(), 0
	for i := 1; time.Since(start) < r.budget(pipelineShare) || len(plain) < minPasses || (traceEvery > 0 && len(traced) < minPasses); i++ {
		var pass *telemetry.Span
		if traceEvery > 0 && i%traceEvery == 0 {
			pass = r.tracer.StartSpan("pipeline.pass", telemetry.A("pass", i))
		}
		var c layerCounts
		ps, err := r.timedPass(ctx, i, pass, &c)
		if err != nil {
			if failing++; failing == maxFailing {
				return nil, nil, nil, fmt.Errorf("pipeline: %w", err)
			}
			continue
		}
		failing = 0
		if pass == nil {
			plain = append(plain, ps)
		} else {
			traced, counts = append(traced, ps), append(counts, c)
		}
	}
	return plain, traced, counts, nil
}

// timedMine is one mining pass from a clean heap, checked against the
// first pass's counts (want, set by the first call). Mining is
// single-threaded; the pass is timed in process CPU seconds and in wall
// seconds.
func (r *runner) timedMine(want *mineCounts, pass *telemetry.Span) (cpu, wall float64, err error) {
	runtime.GC()
	c0, t0 := cpuSeconds(), time.Now()
	c, err := minePass(r.base.states, r.base.motifSeqs, pass)
	cpu, wall = cpuSeconds()-c0, time.Since(t0).Seconds()
	pass.End()
	if err != nil {
		r.res.tally.check(false, "mining: %v", err)
		return 0, 0, err
	}
	if *want == (mineCounts{}) {
		*want = c
	}
	r.res.tally.check(c == *want, "mining counts %+v, first pass %+v", c, *want)
	return cpu, wall, nil
}

// startQueries serves the warm-up store, derives the statement pools
// and sends every statement once (filling the plan cache, the footer
// cache and the page cache) before anything is timed.
func (r *runner) startQueries() (*service, *mix, error) {
	s, err := startService(passDir(r.work, 0), r.tracer)
	if err != nil {
		return nil, nil, err
	}
	pools := statements(r.base.rows, r.base.motifSID, r.seed)
	r.base.rows = nil
	for _, c := range classes {
		for _, st := range pools[c] {
			s.exec(st, r.res.tally)
		}
	}
	return s, newMix(pools), nil
}

// queryPhase runs rounds of the closed loop until budget has passed and
// every class has min samples.
func queryPhase(s *service, m *mix, budget time.Duration, min map[string]int, tally *opTally) *queryLatencies {
	lat := newQueryLatencies()
	for start := time.Now(); time.Since(start) < budget || !lat.enough(min); {
		lat.round(s, m, tally)
	}
	return lat
}

// untraced is the end-to-end run: set-up, then the pipeline phase, the
// query phase over the warm-up pass's store and the mining phase over
// its state tables, one after the other, each for its share of the
// measured seconds. The fleet is released before the query phase.
func (r *runner) untraced(ctx context.Context) error {
	setup, err := r.setup()
	if err != nil {
		return err
	}
	r.res.set("setup_s", "s", setup)
	if err := r.warmPass(ctx); err != nil {
		return err
	}
	r.res.setValue("stored_bytes_per_row", "B/row", float64(r.base.storeBytes)/float64(r.base.sealedRows), nil)
	tot0, steal0 := hostCPU()

	passes, _, _, err := r.pipelinePhase(ctx, 0)
	if err != nil {
		return err
	}
	var rowsPerS, rss []float64
	for _, ps := range passes {
		rowsPerS = append(rowsPerS, float64(r.f.rows)/ps.wall)
		rss = append(rss, ps.rssMiB)
	}
	r.res.set("pipeline_rows_per_s", "rows/s", rowsPerS)
	r.res.set("peak_rss_mb", "MiB", rss)
	r.releaseFleet()

	s, m, err := r.startQueries()
	if err != nil {
		return err
	}
	defer s.close()
	lat := queryPhase(s, m, r.budget(serveShare), map[string]int{classPoint: minPoint, classAgg: minOtherQ, classScan: minOtherQ}, r.res.tally)
	if err := s.close(); err != nil {
		return err
	}
	for _, q := range []struct {
		name, class string
		p           float64
	}{
		{"q_point_p50_ms", classPoint, 0.5},
		{"q_point_p90_ms", classPoint, 0.9},
		{"q_agg_p50_ms", classAgg, 0.5},
		{"q_scan_p50_ms", classScan, 0.5},
	} {
		v, err := percentile(lat.ms[q.class], q.p)
		if err != nil {
			return fmt.Errorf("%s: %w", q.name, err)
		}
		r.res.setValue(q.name, "ms", v, lat.ms[q.class])
	}
	r.res.setValue("queries_per_s", "1/s", lat.perSecond(), nil)

	var want mineCounts
	if _, _, err := r.timedMine(&want, nil); err != nil {
		return err
	}
	var mineCPU, mineWall []float64
	for start := time.Now(); time.Since(start) < r.budget(mineShare) || len(mineCPU) < minMines; {
		cpu, wall, err := r.timedMine(&want, nil)
		if err != nil {
			return err
		}
		mineCPU, mineWall = append(mineCPU, cpu), append(mineWall, wall)
	}
	r.res.set("mine_s", "s", mineCPU)
	r.res.WallS["mine"] = summarize(mineWall)
	r.res.Digests["mining"] = fmt.Sprintf("%+v", want)

	tot1, steal1 := hostCPU()
	r.res.Env["steal_pct"] = strconv.FormatFloat(100*(steal1-steal0)/(tot1-tot0), 'f', 2, 64)
	return nil
}

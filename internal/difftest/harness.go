package difftest

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"ivnt/internal/cluster"
	"ivnt/internal/cluster/faultproxy"
	"ivnt/internal/engine"
	"ivnt/internal/oracle"
	"ivnt/internal/relation"
)

// Env is the shared execution environment for a differential run: a
// multi-core local executor, a real two-node TCP cluster, and a fault
// proxy in front of the first executor for the kill/restart and
// straggler invariants.
type Env struct {
	// Local is the in-process parallel executor every workload runs on.
	Local *engine.Local
	// addrs are the raw executor addresses; proxiedAddrs routes the
	// first executor through the chaos proxy.
	addrs        []string
	proxiedAddrs []string
	proxy        *faultproxy.Proxy
	stop         func()
}

// NewEnv starts a two-executor cluster plus a fault proxy. Close must
// be called when done.
func NewEnv(ctx context.Context) (*Env, error) {
	addrs, stop, err := cluster.StartLocalCluster(ctx, 2)
	if err != nil {
		return nil, err
	}
	proxy, err := faultproxy.New(addrs[0])
	if err != nil {
		stop()
		return nil, err
	}
	return &Env{
		Local:        engine.NewLocal(4),
		addrs:        addrs,
		proxiedAddrs: []string{proxy.Addr(), addrs[1]},
		proxy:        proxy,
		stop:         stop,
	}, nil
}

// Close tears down the proxy and the cluster.
func (e *Env) Close() {
	e.proxy.Close()
	e.stop()
}

// driver builds a fresh Driver against the direct executor addresses.
func (e *Env) driver() *cluster.Driver {
	return &cluster.Driver{
		Addrs:            e.addrs,
		SlotsPerExecutor: 2,
		ReconnectBase:    5 * time.Millisecond,
	}
}

// rel materializes a workload's input with the given partition count.
// Rows are deep-cloned per call: executors may reorder or otherwise
// reuse partition slices in place, and every run must see the pristine
// input.
func (w *Workload) rel(nparts int) *relation.Relation {
	rows := make([]relation.Row, len(w.Rows))
	for i, r := range w.Rows {
		rows[i] = r.Clone()
	}
	return relation.FromRows(w.Schema, rows).Repartition(nparts)
}

// shuffledRel is rel with the input rows in a seed-determined random
// order (the row-order invariance input).
func (w *Workload) shuffledRel(nparts int) *relation.Relation {
	rows := make([]relation.Row, len(w.Rows))
	for i, r := range w.Rows {
		rows[i] = r.Clone()
	}
	rng := rand.New(rand.NewSource(w.Seed ^ 0x5deece66d))
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	return relation.FromRows(w.Schema, rows).Repartition(nparts)
}

// applyStage runs a compiled pipeline over every partition of in, with
// no executor in between.
func applyStage(pipe *engine.StagePipeline, in *relation.Relation) (*relation.Relation, error) {
	parts := make([][]relation.Row, len(in.Partitions))
	for pi, part := range in.Partitions {
		rows, err := pipe.Apply(part)
		if err != nil {
			return nil, err
		}
		parts[pi] = rows
	}
	return &relation.Relation{Schema: pipe.OutputSchema(), Partitions: parts}, nil
}

// reduce collapses an executor result to a partitioning-independent
// relation: plans ending in a partial aggregation are merged (the
// driver-side combine), everything else passes through.
func reduce(res *relation.Relation, w *Workload) (*relation.Relation, error) {
	groupBy, aggs, ok := w.TerminalAgg()
	if !ok {
		return res, nil
	}
	return engine.MergePartials(res, groupBy, aggs)
}

// canonicalReference computes the partitioning-independent expected
// output straight from the oracle: the whole pipeline over the
// unpartitioned input, with a terminal partial aggregation replaced by
// the reference full aggregation.
func canonicalReference(w *Workload) (*relation.Relation, error) {
	groupBy, aggs, ok := w.TerminalAgg()
	if !ok {
		s, rows, err := oracle.RunPipeline(w.Schema, w.rel(1).Rows(), w.Ops)
		if err != nil {
			return nil, err
		}
		return relation.FromRows(s, rows), nil
	}
	pre := w.Ops[:len(w.Ops)-1]
	s, rows, err := oracle.RunPipeline(w.Schema, w.rel(1).Rows(), pre)
	if err != nil {
		return nil, err
	}
	return oracle.FinalAggregate(s, rows, groupBy, aggs)
}

// CheckWorkload executes one workload on the oracle, the local
// executor and the TCP cluster, then checks the five metamorphic
// invariants. It returns one formatted report per failed check; an
// empty slice means the workload passed everything.
func (e *Env) CheckWorkload(ctx context.Context, w *Workload) []string {
	var fails []string
	fail := func(invariant, detail string) {
		fails = append(fails, Report(w, invariant, detail))
	}

	nparts := 1 + int(uint64(w.Seed)%6)

	// Reference output on the baseline partitioning. Everything that
	// runs on the same partitioning must match it bitwise.
	ref, err := oracle.RunStage(w.rel(nparts), w.Ops)
	if err != nil {
		fail("oracle", err.Error())
		return fails
	}

	// Oracle vs multi-core local executor.
	lres, _, err := e.Local.RunStage(ctx, w.rel(nparts), w.Ops)
	if err != nil {
		fail("local", err.Error())
	} else if d := DiffExact(ref, lres); d != "" {
		fail("local", d)
	}

	// Engine-path invariant: the compiled pipeline, applied partition
	// by partition, is held bitwise-equal to the oracle. This is the
	// third differential subject — it pins the fused kernels, the
	// selection-vector compaction and the slab materialization
	// directly, without an executor in between.
	if pipe, err := engine.NewStagePipeline(w.Schema, w.Ops); err != nil {
		fail("engine-compile", err.Error())
	} else if got, err := applyStage(pipe, w.rel(nparts)); err != nil {
		fail("pipeline", err.Error())
	} else if d := DiffExact(ref, got); d != "" {
		fail("pipeline", d)
	}

	// Oracle vs real TCP cluster.
	cres, _, err := e.driver().RunStage(ctx, w.rel(nparts), w.Ops)
	if err != nil {
		fail("cluster", err.Error())
	} else if d := DiffExact(ref, cres); d != "" {
		fail("cluster", d)
	}

	// Invariant 3: Driver.Compress on/off equivalence. Same
	// partitioning, so the comparison stays exact — compression must be
	// invisible down to the last bit.
	dc := e.driver()
	dc.Compress = true
	zres, _, err := dc.RunStage(ctx, w.rel(nparts), w.Ops)
	if err != nil {
		fail("compress", err.Error())
	} else if d := DiffExact(ref, zres); d != "" {
		fail("compress", d)
	}

	// Invariant 4: executor kill+restart mid-run. The first executor
	// sits behind the fault proxy; response chunks are slowed slightly
	// so the stage is still in flight when the proxy severs every
	// connection (twice). The driver must reconnect, re-dispatch, and
	// produce the identical result.
	killPlan := faultproxy.Passthrough() // zero-valued offsets are live faults
	killPlan.Latency = 2 * time.Millisecond
	e.proxy.SetPlan(killPlan)
	killDone := make(chan struct{})
	go func() {
		defer close(killDone)
		time.Sleep(4 * time.Millisecond)
		e.proxy.CutAll()
		time.Sleep(10 * time.Millisecond)
		e.proxy.CutAll()
	}()
	dk := e.driver()
	dk.Addrs = e.proxiedAddrs
	dk.MaxRetries = 8
	kres, _, err := dk.RunStage(ctx, w.rel(nparts), w.Ops)
	<-killDone
	e.proxy.Reset()
	if err != nil {
		fail("kill-restart", err.Error())
	} else if d := DiffExact(ref, kres); d != "" {
		fail("kill-restart", d)
	}

	// Invariant 5: speculation equivalence. The proxied executor is
	// made a straggler and speculation is tuned to fire eagerly; epoch
	// deduplication must keep duplicated task results from leaking into
	// the output.
	slowPlan := faultproxy.Passthrough()
	slowPlan.Latency = 30 * time.Millisecond
	e.proxy.SetPlan(slowPlan)
	ds := e.driver()
	ds.Addrs = e.proxiedAddrs
	ds.SpeculationFactor = 0.5
	ds.SpeculationMin = time.Millisecond
	ds.SpeculationInterval = 2 * time.Millisecond
	sres, _, err := ds.RunStage(ctx, w.rel(nparts), w.Ops)
	e.proxy.Reset()
	if err != nil {
		fail("speculation", err.Error())
	} else if d := DiffExact(ref, sres); d != "" {
		fail("speculation", d)
	}

	// Invariants 1+2 need a partitioning-independent output multiset.
	if !w.DistributionFree() {
		return fails
	}
	want, err := canonicalReference(w)
	if err != nil {
		fail("canonical-oracle", err.Error())
		return fails
	}

	// Invariant 1: partition-count invariance across 1, 2, 7 and 64
	// partitions on the local executor, plus one cluster run on a
	// partition count different from the baseline.
	for _, p := range []int{1, 2, 7, 64} {
		res, _, err := e.Local.RunStage(ctx, w.rel(p), w.Ops)
		if err != nil {
			fail(fmt.Sprintf("partitions=%d", p), err.Error())
			continue
		}
		red, err := reduce(res, w)
		if err != nil {
			fail(fmt.Sprintf("partitions=%d", p), err.Error())
			continue
		}
		if d := DiffCanonical(want, red); d != "" {
			fail(fmt.Sprintf("partitions=%d", p), d)
		}
	}
	cpres, _, err := e.driver().RunStage(ctx, w.rel(nparts+1), w.Ops)
	if err != nil {
		fail("partitions-cluster", err.Error())
	} else if red, err := reduce(cpres, w); err != nil {
		fail("partitions-cluster", err.Error())
	} else if d := DiffCanonical(want, red); d != "" {
		fail("partitions-cluster", d)
	}

	// Invariant 2: input row-order invariance.
	ores, _, err := e.Local.RunStage(ctx, w.shuffledRel(nparts), w.Ops)
	if err != nil {
		fail("row-order", err.Error())
	} else if red, err := reduce(ores, w); err != nil {
		fail("row-order", err.Error())
	} else if d := DiffCanonical(want, red); d != "" {
		fail("row-order", d)
	}

	return fails
}

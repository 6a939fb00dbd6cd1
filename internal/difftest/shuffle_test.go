package difftest

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ivnt/internal/engine"
	"ivnt/internal/oracle"
	"ivnt/internal/relation"
)

// -difftest.shuffle narrows a replay to the shuffle invariants: with
// -difftest.seed=<seed> it skips the main differential run, so the
// failing shuffle check reproduces alone (and verbosely).
var flagShuffle = flag.Bool("difftest.shuffle", false,
	"replay only the shuffle invariants (pair with -difftest.seed to reproduce a shuffle failure)")

// shuffleKeys picks the workload's shuffle key deterministically from
// its output schema, preferring a hashable discrete column.
func shuffleKeys(out relation.Schema) []string {
	for _, c := range out.Cols {
		switch c.Kind {
		case relation.KindString, relation.KindInt, relation.KindBool:
			return []string{c.Name}
		}
	}
	if out.Len() == 0 {
		return nil
	}
	return []string{out.Cols[0].Name}
}

// joinTableFor builds a small dimension table over the key column's
// distinct output values (plus a null key, so null join keys are always
// exercised — the Repartition/hasher null-handling regression).
func joinTableFor(base *relation.Relation, key string) *relation.Relation {
	ki := base.Schema.MustIndex(key)
	kind := base.Schema.Cols[ki].Kind
	s := relation.NewSchema(
		relation.Column{Name: "rk", Kind: kind},
		relation.Column{Name: "tag", Kind: relation.KindString},
	)
	seen := map[string]bool{}
	var rows []relation.Row
	for _, r := range base.Rows() {
		v := r[ki]
		if v.IsNull() {
			continue
		}
		id := v.AsString()
		if seen[id] || len(rows) >= 16 {
			continue
		}
		seen[id] = true
		rows = append(rows, relation.Row{relation.Row{v}.Clone()[0], relation.Str(fmt.Sprintf("tag%d", len(rows)))})
	}
	rows = append(rows, relation.Row{relation.Null(), relation.Str("nulltag")})
	return relation.FromRows(s, rows).Repartition(2)
}

// checkShuffle runs the shuffle metamorphic invariants for one
// workload:
//
//  1. Exchange determinism (bitwise): ShuffleMaterialize — in-process
//     and over TCP — equals map-stage-then-PartitionByKey partition by
//     partition, at fan-outs 1/2/7/64.
//  2. Plan equivalence (canonical): shuffle join == broadcast join ==
//     oracle on the same inputs; and the TCP shuffle join equals the
//     in-process one bitwise at the same fan-out.
//  3. Aggregation plan equivalence (bitwise): for plans ending in a
//     partial aggregation, ShuffleAggregate equals the
//     PartialAgg→MergePartials funnel exactly — per-group accumulation
//     order is identical, so this holds for any float values.
func (e *Env) checkShuffle(ctx context.Context, w *Workload) []string {
	var fails []string
	fail := func(invariant, detail string) {
		fails = append(fails, Report(w, invariant, detail))
	}

	outSchema, err := engine.OutputSchema(w.Schema, w.Ops)
	if err != nil || outSchema.Len() == 0 {
		return nil // nothing to key a shuffle on
	}
	keys := shuffleKeys(outSchema)
	nparts := 1 + int(uint64(w.Seed)%6)

	mapped, _, err := e.Local.RunStage(ctx, w.rel(nparts), w.Ops)
	if err != nil {
		fail("shuffle-map", err.Error())
		return fails
	}

	// Invariant 1: the exchange is a deterministic repartitioning.
	for _, p := range []int{1, 2, 7, 64} {
		want, err := mapped.PartitionByKey(p, keys...)
		if err != nil {
			fail(fmt.Sprintf("shuffle-ref parts=%d", p), err.Error())
			continue
		}
		got, _, err := e.Local.ShuffleMaterialize(ctx, w.rel(nparts), w.Ops, keys, p)
		if err != nil {
			fail(fmt.Sprintf("shuffle-local parts=%d", p), err.Error())
		} else if d := DiffExact(want, got); d != "" {
			fail(fmt.Sprintf("shuffle-local parts=%d", p), d)
		}
	}
	clusterParts := 2 + int(uint64(w.Seed)%5)
	want, err := mapped.PartitionByKey(clusterParts, keys...)
	if err != nil {
		fail("shuffle-cluster", err.Error())
		return fails
	}
	cres, _, err := e.driver().ShuffleMaterialize(ctx, w.rel(nparts), w.Ops, keys, clusterParts)
	if err != nil {
		fail("shuffle-cluster", err.Error())
	} else if d := DiffExact(want, cres); d != "" {
		fail("shuffle-cluster", d)
	}

	// Invariant 2: shuffle join == broadcast join == oracle, joining the
	// workload's output against a dimension table on the shuffle key.
	key := keys[0]
	right := joinTableFor(mapped, key)
	joinOps := []engine.OpDesc{engine.BroadcastJoin(right, []string{key}, []string{"rk"})}
	bcast, _, err := e.Local.RunStage(ctx, mapped, joinOps)
	if err != nil {
		fail("shuffle-join-broadcast", err.Error())
		return fails
	}
	os, orows, err := oracle.RunPipeline(mapped.Schema, mapped.Rows(), joinOps)
	if err != nil {
		fail("shuffle-join-oracle", err.Error())
	} else if d := DiffCanonical(relation.FromRows(os, orows), bcast); d != "" {
		fail("shuffle-join-oracle", d)
	}
	sjLocal, _, err := e.Local.ShuffleJoin(ctx, mapped, right, []string{key}, []string{"rk"}, clusterParts)
	if err != nil {
		fail("shuffle-join-local", err.Error())
	} else if d := DiffCanonical(bcast, sjLocal); d != "" {
		fail("shuffle-join-local", d)
	}
	sjCluster, _, err := e.driver().ShuffleJoin(ctx, mapped, right, []string{key}, []string{"rk"}, clusterParts)
	if err != nil {
		fail("shuffle-join-cluster", err.Error())
	} else if sjLocal != nil {
		if d := DiffExact(sjLocal, sjCluster); d != "" {
			fail("shuffle-join-cluster", d)
		}
	}

	// Invariant 3: the shuffle aggregation plan replaces the funnel
	// bitwise.
	groupBy, aggs, ok := w.TerminalAgg()
	if !ok {
		return fails
	}
	pre, _, err := e.Local.RunStage(ctx, w.rel(nparts), w.Ops[:len(w.Ops)-1])
	if err != nil {
		fail("shuffle-agg-pre", err.Error())
		return fails
	}
	collideKeys(pre, groupBy, w.Seed)
	wantAgg, err := engine.AggregateDistributed(ctx, e.Local, pre, groupBy, aggs)
	if err != nil {
		fail("shuffle-agg-ref", err.Error())
		return fails
	}
	saLocal, _, err := e.Local.ShuffleAggregate(ctx, pre, groupBy, aggs, clusterParts)
	if err != nil {
		fail("shuffle-agg-local", err.Error())
	} else if d := DiffExact(wantAgg, saLocal); d != "" {
		fail("shuffle-agg-local", d)
	}
	saCluster, _, err := e.driver().ShuffleAggregate(ctx, pre, groupBy, aggs, clusterParts)
	if err != nil {
		fail("shuffle-agg-cluster", err.Error())
	} else if d := DiffExact(wantAgg, saCluster); d != "" {
		fail("shuffle-agg-cluster", d)
	}
	return fails
}

// collideKeys rewrites some group-key cells of rel in place into values
// whose rendering collides with another kind's — Null and Str(""), and
// the string twin Str(v.AsString()) of a typed cell — so the shuffle
// aggregation must route keys the merge groups together to one
// partition.
func collideKeys(rel *relation.Relation, groupBy []string, seed int64) {
	rng := rand.New(rand.NewSource(seed ^ 0xc011))
	ki := rel.Schema.MustIndex(groupBy[0])
	for _, p := range rel.Partitions {
		for i, r := range p {
			var v relation.Value
			switch rng.Intn(8) {
			case 0:
				v = relation.Null()
			case 1:
				v = relation.Str("")
			case 2:
				v = relation.Str(r[ki].AsString())
			default:
				continue
			}
			nr := r.Clone()
			nr[ki] = v
			p[i] = nr
		}
	}
}

// TestShuffleDifferential drives the shuffle invariants over the seeded
// workload population (the `make difftest FAMILY=shuffle` CI job). Replay one
// failure with -difftest.seed=<seed> -difftest.shuffle.
func TestShuffleDifferential(t *testing.T) {
	armBudget(t)
	ctx := context.Background()
	env, err := NewEnv(ctx)
	if err != nil {
		t.Fatalf("start cluster env: %v", err)
	}
	defer env.Close()

	var seeds []int64
	if *flagSeed != 0 {
		seeds = []int64{*flagSeed}
	} else {
		for i := int64(0); i < int64(*flagN); i++ {
			seeds = append(seeds, *flagBase+i)
		}
	}
	failures := 0
	for _, seed := range seeds {
		w := Generate(seed)
		if *flagShuffle {
			t.Logf("seed %d ops:\n%s", seed, FormatOps(w.Ops))
		}
		for _, rep := range env.checkShuffle(ctx, w) {
			t.Errorf("\n%s", rep)
			failures++
		}
		if failures >= 3 {
			t.Fatalf("stopping after %d mismatches", failures)
		}
	}
}

// TestShuffleDifferentialCatchesWrongBucket demonstrates detection
// power: a misrouting bug injected into the shuffle's bucket assignment
// (every row shifted one partition over) must be caught by the exchange
// determinism invariant — PartitionByKey, the reference, does not route
// through the hook.
func TestShuffleDifferentialCatchesWrongBucket(t *testing.T) {
	engine.SetDebugShuffleBucket(func(b, parts int) int { return (b + 1) % parts })
	defer engine.SetDebugShuffleBucket(nil)
	ctx := context.Background()
	local := engine.NewLocal(2)

	caught := false
	for seed := int64(1); seed <= 50 && !caught; seed++ {
		w := Generate(seed)
		out, err := engine.OutputSchema(w.Schema, w.Ops)
		if err != nil || out.Len() == 0 {
			continue
		}
		keys := shuffleKeys(out)
		mapped, _, err := local.RunStage(ctx, w.rel(3), w.Ops)
		if err != nil || mapped.NumRows() == 0 {
			continue
		}
		want, err := mapped.PartitionByKey(7, keys...)
		if err != nil {
			continue
		}
		got, _, err := local.ShuffleMaterialize(ctx, w.rel(3), w.Ops, keys, 7)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if d := DiffExact(want, got); d != "" {
			rep := Report(w, "injected-wrong-bucket", d)
			for _, token := range []string{"seed:", "-difftest.seed="} {
				if !strings.Contains(rep, token) {
					t.Fatalf("report missing %q:\n%s", token, rep)
				}
			}
			caught = true
		}
	}
	if !caught {
		t.Fatal("wrong-bucket misrouting survived 50 seeded workloads undetected")
	}
}

package cluster

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"ivnt/internal/engine"
	"ivnt/internal/memgov"
	"ivnt/internal/relation"
)

// keyedRel builds a relation with nullable string/int keys and an
// exactly-representable float payload (sixteenths), so aggregation
// plans compare bitwise.
func keyedRel(n, parts int) *relation.Relation {
	s := relation.NewSchema(
		relation.Column{Name: "k", Kind: relation.KindString},
		relation.Column{Name: "g", Kind: relation.KindInt},
		relation.Column{Name: "v", Kind: relation.KindFloat},
	)
	rows := make([]relation.Row, n)
	for i := range rows {
		k := relation.Str(fmt.Sprintf("key%02d", i%23))
		if i%13 == 0 {
			k = relation.Null()
		}
		rows[i] = relation.Row{k, relation.Int(int64(i % 7)), relation.Float(float64(i%32) / 16)}
	}
	return relation.FromRows(s, rows).Repartition(parts)
}

// labelsRel is a small dimension table keyed on rk, with one null key.
func labelsRel(n, parts int) *relation.Relation {
	s := relation.NewSchema(
		relation.Column{Name: "rk", Kind: relation.KindString},
		relation.Column{Name: "label", Kind: relation.KindString},
	)
	rows := make([]relation.Row, 0, n+1)
	for i := 0; i < n; i++ {
		rows = append(rows, relation.Row{
			relation.Str(fmt.Sprintf("key%02d", i)), relation.Str(fmt.Sprintf("label%d", i)),
		})
	}
	rows = append(rows, relation.Row{relation.Null(), relation.Str("nolabel")})
	return relation.FromRows(s, rows).Repartition(parts)
}

func cellBitsCl(v relation.Value) string {
	if v.K == relation.KindFloat {
		return fmt.Sprintf("f%x", math.Float64bits(v.F))
	}
	return fmt.Sprintf("%d:%s", v.K, v.AsString())
}

func rowBitsCl(r relation.Row) string {
	out := ""
	for _, v := range r {
		out += cellBitsCl(v) + "|"
	}
	return out
}

// mustSamePartitioned fails unless the relations are partitionwise
// bitwise identical — the shuffle determinism contract.
func mustSamePartitioned(t *testing.T, what string, want, got *relation.Relation) {
	t.Helper()
	if !want.Schema.Equal(got.Schema) {
		t.Fatalf("%s: schema mismatch:\n want %s\n got  %s", what, want.Schema, got.Schema)
	}
	if len(want.Partitions) != len(got.Partitions) {
		t.Fatalf("%s: partitions %d vs %d", what, len(want.Partitions), len(got.Partitions))
	}
	for pi := range want.Partitions {
		wp, gp := want.Partitions[pi], got.Partitions[pi]
		if len(wp) != len(gp) {
			t.Fatalf("%s: partition %d rows %d vs %d", what, pi, len(wp), len(gp))
		}
		for ri := range wp {
			if rowBitsCl(wp[ri]) != rowBitsCl(gp[ri]) {
				t.Fatalf("%s: partition %d row %d: want %v got %v", what, pi, ri, wp[ri], gp[ri])
			}
		}
	}
}

func canonRowsCl(rel *relation.Relation) []string {
	var out []string
	for _, p := range rel.Partitions {
		for _, r := range p {
			out = append(out, rowBitsCl(r))
		}
	}
	sort.Strings(out)
	return out
}

// TestClusterShuffleMaterializeMatchesPartitionByKey: the tentpole
// determinism contract over TCP — for any executor count and fan-out,
// ShuffleMaterialize equals map-stage-then-PartitionByKey bitwise,
// partition by partition. Null keys ride along in the fixture.
func TestClusterShuffleMaterializeMatchesPartitionByKey(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	addrs, stop, err := StartLocalCluster(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	rel := keyedRel(700, 8)
	ops := []engine.OpDesc{engine.Filter("g != 1")}
	mapped, _, err := engine.NewLocal(2).RunStage(ctx, rel, ops)
	if err != nil {
		t.Fatal(err)
	}
	drv := &Driver{Addrs: addrs, ReconnectBase: 10 * time.Millisecond}
	for _, parts := range []int{1, 2, 7} {
		want, err := mapped.PartitionByKey(parts, "k")
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := drv.ShuffleMaterialize(ctx, rel, ops, []string{"k"}, parts)
		if err != nil {
			t.Fatalf("parts=%d: %v", parts, err)
		}
		mustSamePartitioned(t, fmt.Sprintf("parts=%d", parts), want, got)
		if st.ShufflePartitions != parts {
			t.Fatalf("parts=%d: stats.ShufflePartitions = %d", parts, st.ShufflePartitions)
		}
		if parts > 1 && st.ShuffleBytesPushed == 0 {
			t.Fatalf("parts=%d: no shuffle bytes pushed, stats = %+v", parts, st)
		}
	}
}

// TestClusterShuffleOpensOnEveryExecutor: a single map task pushes to
// both partition owners, but only one executor draws it. The other
// owner must already hold the shuffle, so no push is rejected as an
// unknown shuffle and the map task never needs a retry.
func TestClusterShuffleOpensOnEveryExecutor(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	addrs, stop, err := StartLocalCluster(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	rel := keyedRel(200, 1)
	want, err := rel.PartitionByKey(2, "k")
	if err != nil {
		t.Fatal(err)
	}
	drv := &Driver{Addrs: addrs, ReconnectBase: 10 * time.Millisecond}
	for i := 0; i < 5; i++ {
		got, st, err := drv.ShuffleMaterialize(ctx, rel, nil, []string{"k"}, 2)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		mustSamePartitioned(t, fmt.Sprintf("run %d", i), want, got)
		if st.Retries != 0 {
			t.Fatalf("run %d: map task retried %d time(s), stats = %+v", i, st.Retries, st)
		}
	}
}

// TestClusterShuffleJoinMatchesBroadcast: the shuffle-hash join plan
// over TCP equals the in-process shuffle join bitwise per partition,
// and the broadcast plan as a row multiset — with null join keys on
// both sides (the Repartition/hasher null-handling regression).
func TestClusterShuffleJoinMatchesBroadcast(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	addrs, stop, err := StartLocalCluster(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	left := keyedRel(600, 6)
	right := labelsRel(23, 2)
	drv := &Driver{Addrs: addrs, ReconnectBase: 10 * time.Millisecond}
	local := engine.NewLocal(2)

	bcast, _, err := local.RunStage(ctx, left, []engine.OpDesc{
		engine.BroadcastJoin(right, []string{"k"}, []string{"rk"}),
	})
	if err != nil {
		t.Fatal(err)
	}
	wantCanon := canonRowsCl(bcast)
	if len(wantCanon) == 0 {
		t.Fatal("broadcast join empty")
	}
	for _, parts := range []int{2, 5} {
		want, _, err := local.ShuffleJoin(ctx, left, right, []string{"k"}, []string{"rk"}, parts)
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := drv.ShuffleJoin(ctx, left, right, []string{"k"}, []string{"rk"}, parts)
		if err != nil {
			t.Fatalf("parts=%d: %v", parts, err)
		}
		mustSamePartitioned(t, fmt.Sprintf("join parts=%d", parts), want, got)
		gotCanon := canonRowsCl(got)
		if fmt.Sprint(gotCanon) != fmt.Sprint(wantCanon) {
			t.Fatalf("parts=%d: shuffle join disagrees with broadcast (%d vs %d rows)",
				parts, len(gotCanon), len(wantCanon))
		}
		if st.ShufflePartitions == 0 {
			t.Fatalf("parts=%d: stats carry no shuffle partitions: %+v", parts, st)
		}
	}
}

// TestClusterShuffleAggregateMatchesDistributed: the shuffle
// aggregation plan over TCP is bitwise identical to the
// PartialAgg→driver→MergePartials funnel it replaces.
func TestClusterShuffleAggregateMatchesDistributed(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	addrs, stop, err := StartLocalCluster(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	rel := keyedRel(900, 9)
	groupBy := []string{"k", "g"}
	aggs := []engine.AggSpec{
		{Fn: engine.AggCount, As: "n"},
		{Fn: engine.AggSum, Col: "v", As: "sum"},
		{Fn: engine.AggMin, Col: "v", As: "min"},
		{Fn: engine.AggMax, Col: "v", As: "max"},
	}
	want, err := engine.AggregateDistributed(ctx, engine.NewLocal(2), rel, groupBy, aggs)
	if err != nil {
		t.Fatal(err)
	}
	drv := &Driver{Addrs: addrs, ReconnectBase: 10 * time.Millisecond}
	for _, parts := range []int{1, 2, 7} {
		got, _, err := drv.ShuffleAggregate(ctx, rel, groupBy, aggs, parts)
		if err != nil {
			t.Fatalf("parts=%d: %v", parts, err)
		}
		mustSamePartitioned(t, fmt.Sprintf("agg parts=%d", parts), want, got)
	}
}

// TestClusterShuffleCompressed: the same contracts hold with frame
// compression on (push payloads and reduce results flate-compressed).
func TestClusterShuffleCompressed(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	addrs, stop, err := StartLocalCluster(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	rel := keyedRel(400, 5)
	mapped, _, err := engine.NewLocal(2).RunStage(ctx, rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mapped.PartitionByKey(4, "k")
	if err != nil {
		t.Fatal(err)
	}
	drv := &Driver{Addrs: addrs, Compress: true, ReconnectBase: 10 * time.Millisecond}
	got, _, err := drv.ShuffleMaterialize(ctx, rel, nil, []string{"k"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	mustSamePartitioned(t, "compressed", want, got)
}

// TestClusterShuffleSpillsUnderBudget: a governed executor that cannot
// hold its received partitions resident must spill them to disk and
// still materialize bitwise-correct output (grants denied → frames to
// disk → decode on reduce).
func TestClusterShuffleSpillsUnderBudget(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	addrs, stop, err := StartLocalCluster(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	g := memgov.Default()
	old := g.Budget()
	g.SetBudget(8 << 10)
	defer g.SetBudget(old)

	rel := keyedRel(4000, 8)
	mapped, _, err := engine.NewLocal(2).RunStage(ctx, rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mapped.PartitionByKey(6, "k")
	if err != nil {
		t.Fatal(err)
	}
	spillsBefore := mShuffleSpills.Value()
	drv := &Driver{Addrs: addrs, ReconnectBase: 10 * time.Millisecond}
	got, _, err := drv.ShuffleMaterialize(ctx, rel, nil, []string{"k"}, 6)
	if err != nil {
		t.Fatal(err)
	}
	g.SetBudget(old)
	mustSamePartitioned(t, "spilled", want, got)
	if mShuffleSpills.Value() == spillsBefore {
		t.Fatal("budgeted executors never spilled a shuffle run")
	}
}

// TestClusterShuffleJoinExceedsBroadcastBudget is the acceptance
// criterion: a join whose build side exceeds a single executor's
// memory budget completes via the shuffle plan — each executor only
// holds its own partitions (spilling the rest), where the broadcast
// plan must pin executors × full build table.
func TestClusterShuffleJoinExceedsBroadcastBudget(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	addrs, stop, err := StartLocalCluster(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	left := keyedRel(2000, 6)
	// A build side far beyond the 64 KiB budget set below.
	bigRight := func() *relation.Relation {
		s := relation.NewSchema(
			relation.Column{Name: "rk", Kind: relation.KindString},
			relation.Column{Name: "pad", Kind: relation.KindString},
		)
		pad := make([]byte, 256)
		for i := range pad {
			pad[i] = byte('a' + i%26)
		}
		rows := make([]relation.Row, 4000)
		for i := range rows {
			rows[i] = relation.Row{
				relation.Str(fmt.Sprintf("key%02d", i%23)),
				relation.Str(fmt.Sprintf("%s%d", pad, i)),
			}
		}
		return relation.FromRows(s, rows).Repartition(4)
	}()

	// Reference result, computed unbudgeted.
	local := engine.NewLocal(2)
	want, _, err := local.ShuffleJoin(ctx, left, bigRight, []string{"k"}, []string{"rk"}, 4)
	if err != nil {
		t.Fatal(err)
	}

	g := memgov.Default()
	old := g.Budget()
	g.SetBudget(64 << 10)
	defer g.SetBudget(old)

	var fp int64
	for _, p := range bigRight.Partitions {
		fp += engine.RowsFootprint(p)
	}
	if fp <= 64<<10 {
		t.Fatalf("fixture too small to exceed the budget: %d bytes", fp)
	}

	drv := &Driver{Addrs: addrs, ReconnectBase: 10 * time.Millisecond}
	got, _, err := drv.ShuffleJoin(ctx, left, bigRight, []string{"k"}, []string{"rk"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	g.SetBudget(old)
	mustSamePartitioned(t, "budgeted join", want, got)
}

// TestShuffleBeginValidation: malformed plans are rejected at begin
// time with deterministic errors, driver-side before any bytes move
// where possible.
func TestShuffleBeginValidation(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	addrs, stop, err := StartLocalCluster(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	drv := &Driver{Addrs: addrs}
	rel := keyedRel(50, 2)
	if _, _, err := drv.ShuffleMaterialize(ctx, rel, nil, nil, 4); err == nil {
		t.Fatal("no keys must fail")
	}
	if _, _, err := drv.ShuffleMaterialize(ctx, rel, nil, []string{"nope"}, 4); err == nil {
		t.Fatal("unknown key must fail")
	}
	if _, _, err := drv.ShuffleJoin(ctx, rel, labelsRel(3, 1), []string{"k", "g"}, []string{"rk"}, 2); err == nil {
		t.Fatal("key arity mismatch must fail")
	}
	// Default fan-out on a live cluster.
	if p := drv.DefaultShuffleParts(); p != 2 {
		t.Fatalf("DefaultShuffleParts = %d, want 2", p)
	}
	got, _, err := drv.ShuffleMaterialize(ctx, rel, nil, []string{"k"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Partitions) != 2 {
		t.Fatalf("default fan-out produced %d partitions", len(got.Partitions))
	}
}

// TestClusterDistributedJoinPicksShuffle: the planner on a cluster
// executor routes a large build side through the shuffle plan and a
// small one through broadcast, with identical row multisets.
func TestClusterDistributedJoinPicksShuffle(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	addrs, stop, err := StartLocalCluster(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	left := keyedRel(500, 4)
	right := labelsRel(23, 2)
	drv := &Driver{Addrs: addrs, ReconnectBase: 10 * time.Millisecond}

	outB, planB, _, err := engine.DistributedJoin(ctx, drv, left, right, []string{"k"}, []string{"rk"}, engine.PlanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if planB != engine.PlanBroadcast {
		t.Fatalf("small build chose %v", planB)
	}
	outS, planS, _, err := engine.DistributedJoin(ctx, drv, left, right, []string{"k"}, []string{"rk"},
		engine.PlanConfig{BroadcastThreshold: 1, Parts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if planS != engine.PlanShuffle {
		t.Fatalf("threshold=1 chose %v", planS)
	}
	if fmt.Sprint(canonRowsCl(outB)) != fmt.Sprint(canonRowsCl(outS)) {
		t.Fatal("broadcast and shuffle plans disagree on a cluster executor")
	}
}

package engine

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"ivnt/internal/memgov"
	"ivnt/internal/relation"
)

// shuffleTestRel builds a relation with string/int keys, an occasional
// null in each key column, and an exactly-representable float payload
// (sixteenths), so aggregation results compare bitwise across plans.
func shuffleTestRel(n, parts int) *relation.Relation {
	s := relation.NewSchema(
		relation.Column{Name: "k", Kind: relation.KindString},
		relation.Column{Name: "g", Kind: relation.KindInt},
		relation.Column{Name: "v", Kind: relation.KindFloat},
	)
	rows := make([]relation.Row, n)
	for i := range rows {
		k := relation.Str(fmt.Sprintf("key%02d", i%17))
		if i%13 == 0 {
			k = relation.Null()
		}
		g := relation.Int(int64(i % 5))
		if i%11 == 0 {
			g = relation.Null()
		}
		rows[i] = relation.Row{k, g, relation.Float(float64(i%32) / 16)}
	}
	return relation.FromRows(s, rows).Repartition(parts)
}

func cellBits(v relation.Value) string {
	if v.K == relation.KindFloat {
		return fmt.Sprintf("f%x", math.Float64bits(v.F))
	}
	return fmt.Sprintf("%d:%s", v.K, v.AsString())
}

func rowKeyString(r relation.Row) string {
	out := ""
	for _, v := range r {
		out += cellBits(v) + "|"
	}
	return out
}

// canonRows flattens a relation to sorted canonical row strings, for
// comparing plans that only promise multiset equality globally.
func canonRows(rel *relation.Relation) []string {
	var out []string
	for _, p := range rel.Partitions {
		for _, r := range p {
			out = append(out, rowKeyString(r))
		}
	}
	sort.Strings(out)
	return out
}

// mustSameExact fails unless both relations are partitionwise bitwise
// identical.
func mustSameExact(t *testing.T, what string, want, got *relation.Relation) {
	t.Helper()
	if !want.Schema.Equal(got.Schema) {
		t.Fatalf("%s: schema mismatch: %v vs %v", what, want.Schema, got.Schema)
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
			if rowKeyString(wp[ri]) != rowKeyString(gp[ri]) {
				t.Fatalf("%s: partition %d row %d: want %v got %v", what, pi, ri, wp[ri], gp[ri])
			}
		}
	}
}

// The exchange invariant: concatenating ShuffleSplit buckets across
// input partitions in order reproduces PartitionByKey bitwise, at any
// fan-out.
func TestShuffleSplitMatchesPartitionByKey(t *testing.T) {
	rel := shuffleTestRel(500, 7)
	keyIdx := []int{rel.Schema.MustIndex("k"), rel.Schema.MustIndex("g")}
	for _, parts := range []int{1, 2, 7, 64} {
		want, err := rel.PartitionByKey(parts, "k", "g")
		if err != nil {
			t.Fatal(err)
		}
		got := localShuffle(rel, keyIdx, parts, ShuffleSplit)
		mustSameExact(t, fmt.Sprintf("parts=%d", parts), want, got)
	}
}

// Null keys land in exactly one deterministic bucket on every layer
// (Row.Bucket is the shared authority), so a shuffled join never splits
// the null group across partitions.
func TestShuffleNullKeysSingleBucket(t *testing.T) {
	rel := shuffleTestRel(300, 3)
	keyIdx := []int{rel.Schema.MustIndex("k")}
	sh := localShuffle(rel, keyIdx, 8, ShuffleSplit)
	nullPart := -1
	for pi, p := range sh.Partitions {
		for _, r := range p {
			if r[0].IsNull() {
				if nullPart == -1 {
					nullPart = pi
				} else if nullPart != pi {
					t.Fatalf("null keys split across partitions %d and %d", nullPart, pi)
				}
			}
		}
	}
	if nullPart == -1 {
		t.Fatal("test data produced no null keys")
	}
	// And that single bucket is the one Row.Bucket says.
	want := relation.Row{relation.Null()}.Bucket(8, 0)
	if nullPart != want {
		t.Fatalf("null bucket = %d, Row.Bucket says %d", nullPart, want)
	}
}

// The shuffle-hash join plan must agree with the broadcast plan —
// including over null join keys (the Repartition/hasher null-handling
// regression): same multiset of output rows at every fan-out.
func TestLocalShuffleJoinMatchesBroadcast(t *testing.T) {
	left := shuffleTestRel(400, 5)
	rightRows := []relation.Row{}
	for i := 0; i < 17; i++ {
		rightRows = append(rightRows, relation.Row{
			relation.Str(fmt.Sprintf("key%02d", i)), relation.Str(fmt.Sprintf("label%d", i)),
		})
	}
	// A null build key too: must not match anything, must not crash.
	rightRows = append(rightRows, relation.Row{relation.Null(), relation.Str("nolabel")})
	right := relation.FromRows(relation.NewSchema(
		relation.Column{Name: "rk", Kind: relation.KindString},
		relation.Column{Name: "label", Kind: relation.KindString},
	), rightRows).Repartition(2)

	exec := NewLocal(3)
	bcast, _, err := exec.RunStage(ctx, left, []OpDesc{BroadcastJoin(right, []string{"k"}, []string{"rk"})})
	if err != nil {
		t.Fatal(err)
	}
	want := canonRows(bcast)
	if len(want) == 0 {
		t.Fatal("broadcast join produced no rows")
	}
	for _, parts := range []int{1, 2, 7, 64} {
		shuf, st, err := exec.ShuffleJoin(ctx, left, right, []string{"k"}, []string{"rk"}, parts)
		if err != nil {
			t.Fatalf("parts=%d: %v", parts, err)
		}
		got := canonRows(shuf)
		if len(got) != len(want) {
			t.Fatalf("parts=%d: %d rows, want %d", parts, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("parts=%d: row %d differs: %s vs %s", parts, i, got[i], want[i])
			}
		}
		if st.ShufflePartitions != parts {
			t.Fatalf("parts=%d: stats.ShufflePartitions = %d", parts, st.ShufflePartitions)
		}
	}
}

// The shuffle aggregation plan must be bitwise identical to both the
// broadcast plan (AggregateDistributed) and the single-process
// Aggregate — exact here because the float payload is sixteenths.
func TestLocalShuffleAggregateMatchesAggregate(t *testing.T) {
	rel := shuffleTestRel(600, 6)
	groupBy := []string{"k", "g"}
	aggs := []AggSpec{
		{Fn: AggCount, As: "n"},
		{Fn: AggSum, Col: "v", As: "sum"},
		{Fn: AggMin, Col: "v", As: "min"},
		{Fn: AggMax, Col: "v", As: "max"},
	}
	exec := NewLocal(3)
	want, err := Aggregate(rel, groupBy, aggs)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := AggregateDistributed(ctx, exec, rel, groupBy, aggs)
	if err != nil {
		t.Fatal(err)
	}
	mustSameExact(t, "distributed-vs-local", want, dist)
	for _, parts := range []int{1, 2, 7, 64} {
		got, _, err := exec.ShuffleAggregate(ctx, rel, groupBy, aggs, parts)
		if err != nil {
			t.Fatalf("parts=%d: %v", parts, err)
		}
		mustSameExact(t, fmt.Sprintf("shuffle-agg parts=%d", parts), want, got)
	}
}

// ShuffleMaterialize with a pipeline applies the ops before hashing.
func TestLocalShuffleMaterializeWithOps(t *testing.T) {
	rel := shuffleTestRel(200, 4)
	exec := NewLocal(2)
	filtered, _, err := exec.RunStage(ctx, rel, []OpDesc{Filter("g == 2")})
	if err != nil {
		t.Fatal(err)
	}
	want, err := filtered.PartitionByKey(5, "k")
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := exec.ShuffleMaterialize(ctx, rel, []OpDesc{Filter("g == 2")}, []string{"k"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	mustSameExact(t, "materialize", want, got)
}

func TestMergeByGroupKeyOrders(t *testing.T) {
	s := relation.NewSchema(
		relation.Column{Name: "k", Kind: relation.KindString},
		relation.Column{Name: "n", Kind: relation.KindInt},
	)
	_ = s
	parts := [][]relation.Row{
		{{relation.Str("b"), relation.Int(1)}, {relation.Str("d"), relation.Int(2)}},
		{{relation.Str("a"), relation.Int(3)}, {relation.Str("c"), relation.Int(4)}},
		nil,
	}
	got := MergeByGroupKey(parts, 1)
	keys := make([]string, len(got))
	for i, r := range got {
		keys[i] = r[0].AsString()
	}
	if fmt.Sprint(keys) != "[a b c d]" {
		t.Fatalf("merged order = %v", keys)
	}
}

// The debug bucket hook misroutes rows (difftest uses it to prove the
// invariant detects wrong-bucket bugs); removing it restores agreement.
func TestSetDebugShuffleBucket(t *testing.T) {
	rel := shuffleTestRel(100, 2)
	keyIdx := []int{rel.Schema.MustIndex("k")}
	want, err := rel.PartitionByKey(4, "k")
	if err != nil {
		t.Fatal(err)
	}
	SetDebugShuffleBucket(func(b, parts int) int { return (b + 1) % parts })
	broken := localShuffle(rel, keyIdx, 4, ShuffleSplit)
	SetDebugShuffleBucket(nil)
	same := true
	for pi := range want.Partitions {
		if len(want.Partitions[pi]) != len(broken.Partitions[pi]) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("bucket mutation hook had no observable effect")
	}
	fixed := localShuffle(rel, keyIdx, 4, ShuffleSplit)
	mustSameExact(t, "after hook removal", want, fixed)
}

// Plan selection: small builds broadcast, large builds shuffle, and
// both plans return the same rows.
func TestDistributedJoinPlanSelection(t *testing.T) {
	left := shuffleTestRel(300, 4)
	right := relation.FromRows(relation.NewSchema(
		relation.Column{Name: "rk", Kind: relation.KindString},
		relation.Column{Name: "label", Kind: relation.KindString},
	), []relation.Row{
		{relation.Str("key03"), relation.Str("three")},
		{relation.Str("key07"), relation.Str("seven")},
	}).Repartition(1)
	exec := NewLocal(2)

	out1, plan1, _, err := DistributedJoin(ctx, exec, left, right, []string{"k"}, []string{"rk"}, PlanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if plan1 != PlanBroadcast {
		t.Fatalf("tiny build chose %v, want broadcast", plan1)
	}
	out2, plan2, _, err := DistributedJoin(ctx, exec, left, right, []string{"k"}, []string{"rk"}, PlanConfig{BroadcastThreshold: 1, Parts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if plan2 != PlanShuffle {
		t.Fatalf("threshold=1 chose %v, want shuffle", plan2)
	}
	w, g := canonRows(out1), canonRows(out2)
	if fmt.Sprint(w) != fmt.Sprint(g) {
		t.Fatalf("plans disagree: %d vs %d rows", len(w), len(g))
	}
	if PlanBroadcast.String() != "broadcast" || PlanShuffle.String() != "shuffle" {
		t.Fatal("PlanKind strings")
	}
}

// Plan selection for aggregation, and the budget-derived threshold: a
// governed process with a small budget prefers shuffle without an
// explicit threshold.
func TestDistributedAggregatePlanSelection(t *testing.T) {
	rel := shuffleTestRel(400, 4)
	groupBy := []string{"k"}
	aggs := []AggSpec{{Fn: AggCount, As: "n"}, {Fn: AggSum, Col: "v", As: "sum"}}
	exec := NewLocal(2)

	out1, plan1, _, err := DistributedAggregate(ctx, exec, rel, groupBy, aggs, PlanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if plan1 != PlanBroadcast {
		t.Fatalf("unbudgeted chose %v, want broadcast", plan1)
	}

	old := memgov.Default().Budget()
	memgov.Default().SetBudget(1 << 10) // tiny budget: threshold = 256 bytes
	defer memgov.Default().SetBudget(old)
	out2, plan2, _, err := DistributedAggregate(ctx, exec, rel, groupBy, aggs, PlanConfig{Parts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if plan2 != PlanShuffle {
		t.Fatalf("budgeted chose %v, want shuffle", plan2)
	}
	mustSameExact(t, "agg plans", out1, out2)
}

// Physical plan selection for distributed joins and aggregations
// (docs/SHUFFLE.md). Two plans exist for each:
//
//   - Broadcast: ship the build side (join) or all partials
//     (aggregation) to one place. O(executors × build) bytes on the
//     wire for joins, and the build table must fit one executor's
//     memory budget.
//   - Shuffle: hash-repartition on the key so each output partition is
//     computed where its rows land. O(data) bytes on the wire, and no
//     single node ever holds more than its partitions.
//
// The planner picks by a size estimate: builds (or inputs) under the
// broadcast threshold broadcast, everything else shuffles — provided
// the executor can (implements ShuffleExecutor); otherwise broadcast is
// the only plan. Both plans are bitwise-equivalent on the same
// partitioning, which is the metamorphic invariant the differential
// harness holds them to (internal/difftest).
package engine

import (
	"context"
	"fmt"

	"ivnt/internal/memgov"
	"ivnt/internal/relation"
)

// ShuffleExecutor is an Executor that can hash-repartition relations
// across its workers — the capability the shuffle plans need. Local
// implements it in-process; internal/cluster.Driver implements it with
// executor-to-executor partition streaming (protocol v4).
type ShuffleExecutor interface {
	Executor
	// ShuffleMaterialize applies ops to rel and hash-partitions the
	// result on keys into parts partitions. Partition p of the result
	// is bitwise identical to result.PartitionByKey(parts, keys...)
	// partition p, whatever the executor topology.
	ShuffleMaterialize(ctx context.Context, rel *relation.Relation, ops []OpDesc, keys []string, parts int) (*relation.Relation, Stats, error)
	// ShuffleJoin repartitions both sides on their join keys and joins
	// each partition pair locally with the broadcast-join kernel.
	ShuffleJoin(ctx context.Context, left, right *relation.Relation, leftKeys, rightKeys []string, parts int) (*relation.Relation, Stats, error)
	// ShuffleAggregate computes a group-by via partial aggregation,
	// repartitioning the partials on the group key and finalizing each
	// partition locally. The result is a single partition in global
	// group-key order, bitwise identical to AggregateDistributed's.
	ShuffleAggregate(ctx context.Context, rel *relation.Relation, groupBy []string, aggs []AggSpec, parts int) (*relation.Relation, Stats, error)
	// DefaultShuffleParts is the fan-out used when the plan config does
	// not pick one.
	DefaultShuffleParts() int
}

// Interface conformance: Local is a ShuffleExecutor.
var _ ShuffleExecutor = (*Local)(nil)

// DefaultShuffleParts implements ShuffleExecutor.
func (l *Local) DefaultShuffleParts() int {
	p := l.workers()
	if p < 2 {
		p = 2
	}
	return p
}

// localShuffle hash-partitions rel into parts partitions on keyIdx
// with split (ShuffleSplit, or AggSplit for aggregate partials). Output
// partition p concatenates each input partition's bucket-p rows in
// input-partition order — with ShuffleSplit, PartitionByKey's layout,
// built so the difftest bucket-mutation hook sees this path too.
func localShuffle(rel *relation.Relation, keyIdx []int, parts int, split func([]relation.Row, []int, int) [][]relation.Row) *relation.Relation {
	outParts := make([][]relation.Row, parts)
	for _, in := range rel.Partitions {
		for b, rows := range split(in, keyIdx, parts) {
			outParts[b] = append(outParts[b], rows...)
		}
	}
	return &relation.Relation{Schema: rel.Schema, Partitions: outParts}
}

// resolveKeys maps key column names to indexes in s.
func resolveKeys(s relation.Schema, keys []string) ([]int, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("engine: shuffle needs key columns")
	}
	idx := make([]int, len(keys))
	for i, k := range keys {
		idx[i] = s.Index(k)
		if idx[i] < 0 {
			return nil, fmt.Errorf("engine: shuffle key %q not in schema", k)
		}
	}
	return idx, nil
}

// ShuffleMaterialize implements ShuffleExecutor in-process.
func (l *Local) ShuffleMaterialize(ctx context.Context, rel *relation.Relation, ops []OpDesc, keys []string, parts int) (*relation.Relation, Stats, error) {
	if parts < 1 {
		parts = l.DefaultShuffleParts()
	}
	out, st, err := l.RunStage(ctx, rel, ops)
	if err != nil {
		return nil, Stats{}, err
	}
	keyIdx, err := resolveKeys(out.Schema, keys)
	if err != nil {
		return nil, Stats{}, err
	}
	shuffled := localShuffle(out, keyIdx, parts, ShuffleSplit)
	st.Partitions = parts
	st.ShufflePartitions += parts
	return shuffled, st, nil
}

// ShuffleJoin implements ShuffleExecutor in-process: both sides
// repartition on their keys, then each partition joins against its
// build partition with the same broadcast-join kernel the cluster
// reduce uses — keeping the two executors bitwise interchangeable.
func (l *Local) ShuffleJoin(ctx context.Context, left, right *relation.Relation, leftKeys, rightKeys []string, parts int) (*relation.Relation, Stats, error) {
	if parts < 1 {
		parts = l.DefaultShuffleParts()
	}
	if len(leftKeys) == 0 || len(leftKeys) != len(rightKeys) {
		return nil, Stats{}, fmt.Errorf("engine: shuffle join keys mismatch: %v vs %v", leftKeys, rightKeys)
	}
	lIdx, err := resolveKeys(left.Schema, leftKeys)
	if err != nil {
		return nil, Stats{}, err
	}
	rIdx, err := resolveKeys(right.Schema, rightKeys)
	if err != nil {
		return nil, Stats{}, err
	}
	shL := localShuffle(left, lIdx, parts, ShuffleSplit)
	shR := localShuffle(right, rIdx, parts, ShuffleSplit)
	outParts := make([][]relation.Row, parts)
	var outSchema relation.Schema
	var tasks int
	for p := 0; p < parts; p++ {
		if ctx.Err() != nil {
			return nil, Stats{}, ctx.Err()
		}
		build := &relation.Relation{Schema: right.Schema, Partitions: [][]relation.Row{shR.Partitions[p]}}
		pipe, _, err := CompileStage(left.Schema, []OpDesc{BroadcastJoin(build, leftKeys, rightKeys)})
		if err != nil {
			return nil, Stats{}, err
		}
		rows, err := pipe.ApplyContained(shL.Partitions[p])
		if err != nil {
			return nil, Stats{}, err
		}
		outParts[p] = rows
		outSchema = pipe.OutputSchema()
		tasks++
	}
	out := &relation.Relation{Schema: outSchema, Partitions: outParts}
	st := Stats{
		RowsIn:            left.NumRows() + right.NumRows(),
		RowsOut:           out.NumRows(),
		Partitions:        parts,
		Tasks:             tasks,
		ShufflePartitions: parts,
	}
	return out, st, nil
}

// ShuffleAggregate implements ShuffleExecutor in-process: partials from
// a PartialAgg stage repartition on the group key, each partition
// merges to finals locally, and the key-disjoint finals merge back into
// global key order.
func (l *Local) ShuffleAggregate(ctx context.Context, rel *relation.Relation, groupBy []string, aggs []AggSpec, parts int) (*relation.Relation, Stats, error) {
	if parts < 1 {
		parts = l.DefaultShuffleParts()
	}
	partials, st, err := l.RunStage(ctx, rel, []OpDesc{PartialAgg(groupBy, aggs)})
	if err != nil {
		return nil, Stats{}, err
	}
	keyIdx, err := resolveKeys(partials.Schema, groupBy)
	if err != nil {
		return nil, Stats{}, err
	}
	shuffled := localShuffle(partials, keyIdx, parts, AggSplit)
	finalParts := make([][]relation.Row, parts)
	var finalSchema relation.Schema
	for p := 0; p < parts; p++ {
		if ctx.Err() != nil {
			return nil, Stats{}, ctx.Err()
		}
		one := &relation.Relation{Schema: partials.Schema, Partitions: [][]relation.Row{shuffled.Partitions[p]}}
		final, err := MergePartials(one, groupBy, aggs)
		if err != nil {
			return nil, Stats{}, err
		}
		finalParts[p] = final.Rows()
		finalSchema = final.Schema
	}
	merged := MergeByGroupKey(finalParts, len(groupBy))
	out := &relation.Relation{Schema: finalSchema, Partitions: [][]relation.Row{merged}}
	st.RowsOut = out.NumRows()
	st.Partitions = parts
	st.ShufflePartitions += parts
	st.Tasks += parts
	return out, st, nil
}

// PlanKind names the physical plan DistributedJoin/DistributedAggregate
// selected.
type PlanKind int

const (
	// PlanBroadcast ships the build side (or all partials) whole.
	PlanBroadcast PlanKind = iota
	// PlanShuffle hash-repartitions on the key.
	PlanShuffle
)

func (k PlanKind) String() string {
	switch k {
	case PlanBroadcast:
		return "broadcast"
	case PlanShuffle:
		return "shuffle"
	default:
		return fmt.Sprintf("PlanKind(%d)", int(k))
	}
}

// PlanConfig tunes physical plan selection.
type PlanConfig struct {
	// BroadcastThreshold is the build-side (join) or input-side
	// (aggregation) footprint in bytes above which the planner prefers
	// a shuffle plan. 0 derives it from the memory budget: a quarter of
	// the process budget when one is set (the broadcast build table must
	// fit every executor next to its working set), else 64 MiB.
	BroadcastThreshold int64
	// Parts is the shuffle fan-out; 0 asks the executor for its
	// default.
	Parts int
}

func (c PlanConfig) threshold() int64 {
	if c.BroadcastThreshold > 0 {
		return c.BroadcastThreshold
	}
	if g := memgov.Default(); !g.Unlimited() {
		return g.Budget() / 4
	}
	return 64 << 20
}

// footprint estimates a relation's resident size.
func footprint(rel *relation.Relation) int64 {
	var n int64
	for _, p := range rel.Partitions {
		n += RowsFootprint(p)
	}
	return n
}

// DistributedJoin joins left with right on the given keys, picking the
// physical plan by build-side size: small builds broadcast, large ones
// shuffle (when exec supports it). Returns the plan taken so callers
// (bench, difftest) can assert planning decisions.
func DistributedJoin(ctx context.Context, exec Executor, left, right *relation.Relation, leftKeys, rightKeys []string, cfg PlanConfig) (*relation.Relation, PlanKind, Stats, error) {
	se, canShuffle := exec.(ShuffleExecutor)
	if canShuffle && footprint(right) > cfg.threshold() {
		out, st, err := se.ShuffleJoin(ctx, left, right, leftKeys, rightKeys, cfg.Parts)
		return out, PlanShuffle, st, err
	}
	out, st, err := exec.RunStage(ctx, left, []OpDesc{BroadcastJoin(right, leftKeys, rightKeys)})
	return out, PlanBroadcast, st, err
}

// DistributedAggregate computes a group-by, picking the physical plan
// by input size: the broadcast plan funnels every partial through the
// driver's MergePartials, which is fine until the partials themselves
// are big (high key cardinality); past the threshold the shuffle plan
// spreads finalization over the executors. The input footprint is the
// proxy for partial size — pessimistic for low-cardinality keys, where
// the funnel is cheap anyway.
func DistributedAggregate(ctx context.Context, exec Executor, rel *relation.Relation, groupBy []string, aggs []AggSpec, cfg PlanConfig) (*relation.Relation, PlanKind, Stats, error) {
	se, canShuffle := exec.(ShuffleExecutor)
	if canShuffle && footprint(rel) > cfg.threshold() {
		out, st, err := se.ShuffleAggregate(ctx, rel, groupBy, aggs, cfg.Parts)
		return out, PlanShuffle, st, err
	}
	partials, st, err := exec.RunStage(ctx, rel, []OpDesc{PartialAgg(groupBy, aggs)})
	if err != nil {
		return nil, PlanBroadcast, Stats{}, err
	}
	out, err := MergePartials(partials, groupBy, aggs)
	if err != nil {
		return nil, PlanBroadcast, Stats{}, err
	}
	st.RowsOut = out.NumRows()
	return out, PlanBroadcast, st, nil
}

// ScanAggregate computes a group-by over a scan stage: ScanStage(exec,
// src, ops) followed by DistributedAggregate, with one shortcut. When
// the stage only projects (FoldPushdown folds every op, pushes no
// filter, and the stage outputs the columns it scans) and src is a
// FooterAnswerer, each segment whose footer proves its partial-
// aggregate row is answered without being read. The other segments
// are scanned as usual, answered ones coming back as empty partitions,
// and run PartialAgg; the footer rows are then spliced in by segment
// index. MergePartials thus sees the partials the broadcast plan would
// have fed it, in the same order, and the result is bitwise the same.
//
// The plan choice is kept too: the footers also give the footprint
// the answered rows would have had, so the input size the planner
// compares with the broadcast threshold is the decoding path's. Where
// that picks the shuffle plan, which needs every row, ScanAggregate
// runs ScanStage + DistributedAggregate instead, as it does when no
// segment answers. Answered segments are counted in
// Stats.SegmentsAnswered; Stats.RowsIn counts the rows the scan read.
func ScanAggregate(ctx context.Context, exec Executor, src ScanSource, ops []OpDesc, groupBy []string, aggs []AggSpec, cfg PlanConfig) (*relation.Relation, PlanKind, Stats, error) {
	pd, refs, width, partialSchema, err := footerAnswers(src, ops, groupBy, aggs)
	if err != nil {
		return nil, PlanBroadcast, Stats{}, err
	}
	answered := 0
	var answeredSize int64
	for _, r := range refs {
		if r.Answer != nil {
			answered++
			answeredSize += fixedFootprint(r.Rows, width) + r.AnswerBytes
		}
	}
	_, canShuffle := exec.(ShuffleExecutor)
	shuffles := func(size int64) bool { return canShuffle && size > cfg.threshold() }
	if answered == 0 || shuffles(answeredSize) {
		return scanThenAggregate(ctx, exec, src, ops, groupBy, aggs, cfg)
	}

	var st Stats
	partials := &relation.Relation{Schema: partialSchema, Partitions: make([][]relation.Row, len(refs))}
	if answered < len(refs) {
		pd.Segments = refs
		rel, sst, err := runScanStage(ctx, exec, src, pd, ops)
		if err != nil {
			return nil, PlanBroadcast, Stats{}, err
		}
		if shuffles(answeredSize + footprint(rel)) {
			return scanThenAggregate(ctx, exec, src, ops, groupBy, aggs, cfg)
		}
		if partials, st, err = exec.RunStage(ctx, rel, []OpDesc{PartialAgg(groupBy, aggs)}); err != nil {
			return nil, PlanBroadcast, Stats{}, err
		}
		st.Add(sst)
		st.RowsIn = sst.RowsIn
	}
	for i, r := range refs {
		if r.Answer != nil {
			partials.Partitions[i] = []relation.Row{r.Answer}
		}
	}
	out, err := MergePartials(partials, groupBy, aggs)
	if err != nil {
		return nil, PlanBroadcast, Stats{}, err
	}
	st.RowsOut = out.NumRows()
	st.SegmentsAnswered = answered
	return out, PlanBroadcast, st, nil
}

// scanThenAggregate is the decoding path: ScanStage, then
// DistributedAggregate with its own plan choice.
func scanThenAggregate(ctx context.Context, exec Executor, src ScanSource, ops []OpDesc, groupBy []string, aggs []AggSpec, cfg PlanConfig) (*relation.Relation, PlanKind, Stats, error) {
	rel, st, err := ScanStage(ctx, exec, src, ops)
	if err != nil {
		return nil, PlanBroadcast, Stats{}, err
	}
	out, pk, ast, err := DistributedAggregate(ctx, exec, rel, groupBy, aggs, cfg)
	if err != nil {
		return nil, pk, Stats{}, err
	}
	rowsIn := st.RowsIn
	st.Add(ast)
	st.RowsIn = rowsIn
	return out, pk, st, nil
}

// footerAnswers asks src for footer answers when the scan stage
// qualifies: every op a Project, so FoldPushdown consumes the whole
// stage and pushes no filter; the stage outputs as many columns as it
// scans, so the footer's payload sizes are the output rows' (width is
// that count); and src is a FooterAnswerer. Otherwise it returns no
// refs. It checks the plan first, as ScanStage and the PartialAgg
// stage would, and returns the partials' schema.
func footerAnswers(src ScanSource, ops []OpDesc, groupBy []string, aggs []AggSpec) (pd Pushdown, refs []SegmentRef, width int, partialSchema relation.Schema, err error) {
	full := src.ScanSchema()
	out, err := OutputSchema(full, ops)
	if err == nil {
		partialSchema, err = OutputSchema(out, []OpDesc{PartialAgg(groupBy, aggs)})
	}
	if err != nil {
		return Pushdown{}, nil, 0, relation.Schema{}, err
	}
	fa, ok := src.(FooterAnswerer)
	if !ok {
		return Pushdown{}, nil, 0, partialSchema, nil
	}
	for _, op := range ops {
		if op.Kind != OpProject {
			return Pushdown{}, nil, 0, partialSchema, nil
		}
	}
	if pd, err = FoldPushdown(full, ops); err != nil {
		return Pushdown{}, nil, 0, relation.Schema{}, err
	}
	if pd.Cols != nil && len(pd.Cols) != out.Len() {
		return Pushdown{}, nil, 0, partialSchema, nil
	}
	if refs, err = fa.AnswerSegments(pd, groupBy, aggs); err != nil {
		return Pushdown{}, nil, 0, relation.Schema{}, err
	}
	return pd, refs, out.Len(), partialSchema, nil
}

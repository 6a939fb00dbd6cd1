// Shuffle exchange kernels: the engine-side half of the hash-partitioned
// shuffle (docs/SHUFFLE.md). OpShuffleExchange is a narrow operator —
// it reorders one partition's rows into contiguous runs grouped by
// ascending key-hash bucket — so the oracle and the pipeline can be
// held bitwise equal on it. The cluster
// layer (internal/cluster) builds the wide exchange on top: map tasks
// run a pipeline ending in this split, then stream each bucket to the
// executor that owns the corresponding output partition.
//
// Bucket assignment is delegated to relation.Row.Bucket, the single
// authority shared with Relation.PartitionByKey, so null keys land in
// exactly one deterministic bucket on every layer (the null-key
// regression tests pin this).
package engine

import (
	"sync/atomic"

	"ivnt/internal/relation"
	"ivnt/internal/telemetry"
)

// Shuffle metric families, pre-registered at init so /metrics carries
// them from process start (`make vet-metrics` checks the catalogue via
// VerifyShuffleMetrics).
var (
	mShuffleSplits = telemetry.Default().Counter(
		"engine_shuffle_splits_total",
		"ShuffleSplit invocations (one per map-side partition routed through a shuffle exchange).")
	mShuffleRows = telemetry.Default().Counter(
		"engine_shuffle_rows_total",
		"Rows routed into hash buckets by shuffle exchanges.")
)

// debugShuffleBucket, when set, rewrites every computed shuffle bucket.
// The difftest wrong-hash-bucket detection test injects a misrouting
// bug here and asserts the shuffle invariant catches it. Atomic so
// tests can arm it while executor worker goroutines run splits.
var debugShuffleBucket atomic.Pointer[func(bucket, parts int) int]

// SetDebugShuffleBucket installs (or, with nil, removes) the bucket
// mutation hook.
func SetDebugShuffleBucket(f func(bucket, parts int) int) {
	if f == nil {
		debugShuffleBucket.Store(nil)
		return
	}
	debugShuffleBucket.Store(&f)
}

// shuffleBucket computes the output bucket for one row, applying the
// debug mutation hook when armed.
func shuffleBucket(r relation.Row, parts int, keyIdx []int) int {
	b := r.Bucket(parts, keyIdx...)
	if f := debugShuffleBucket.Load(); f != nil {
		b = (*f)(b, parts)
	}
	return b
}

// ShuffleSplit cuts one partition's rows into parts buckets by the
// hash of the key cells, preserving input order within each bucket.
// Bucket i of the result is output partition i's contribution from
// this input partition; concatenating the buckets of every input
// partition in partition order reproduces Relation.PartitionByKey
// bitwise — the invariant difftest holds the cluster exchange to.
func ShuffleSplit(rows []relation.Row, keyIdx []int, parts int) [][]relation.Row {
	if parts < 1 {
		parts = 1
	}
	mShuffleSplits.Inc()
	mShuffleRows.Add(int64(len(rows)))
	out := make([][]relation.Row, parts)
	if parts == 1 {
		out[0] = rows
		return out
	}
	for _, r := range rows {
		b := shuffleBucket(r, parts, keyIdx)
		out[b] = append(out[b], r)
	}
	return out
}

// applyShuffleExchange is the narrow OpShuffleExchange kernel: the
// partition's rows regrouped as contiguous ascending-bucket runs.
func (st *compiledOp) applyShuffleExchange(rows []relation.Row) ([]relation.Row, error) {
	split := ShuffleSplit(rows, st.colIdx, st.desc.Parts)
	if len(split) == 1 {
		return rows, nil
	}
	out := make([]relation.Row, 0, len(rows))
	for _, b := range split {
		out = append(out, b...)
	}
	return out, nil
}

// MergeByGroupKey merges key-ordered, key-disjoint aggregation outputs
// (one slice per shuffle partition, each produced by MergePartials or
// Aggregate) into one globally key-ordered row slice — the same n-way
// minimum walk the grace-hash spill path uses, exported so the shuffle
// aggregation plan reproduces engine.Aggregate's global key order
// bitwise from per-partition finals. nkey is the number of leading
// group-key columns.
func MergeByGroupKey(parts [][]relation.Row, nkey int) []relation.Row {
	type cursor struct {
		rows []relation.Row
		pos  int
		key  []byte
	}
	outIdx := keyRange(nkey)
	cs := make([]*cursor, 0, len(parts))
	total := 0
	for _, p := range parts {
		if len(p) == 0 {
			continue
		}
		c := &cursor{rows: p}
		c.key = groupKeyAppend(nil, p[0], outIdx)
		cs = append(cs, c)
		total += len(p)
	}
	merged := make([]relation.Row, 0, total)
	for len(cs) > 0 {
		min := 0
		for i := 1; i < len(cs); i++ {
			if string(cs[i].key) < string(cs[min].key) {
				min = i
			}
		}
		c := cs[min]
		merged = append(merged, c.rows[c.pos])
		c.pos++
		if c.pos == len(c.rows) {
			cs = append(cs[:min], cs[min+1:]...)
		} else {
			c.key = groupKeyAppend(c.key[:0], c.rows[c.pos], outIdx)
		}
	}
	return merged
}

// VerifyShuffleMetrics checks the engine_shuffle_* catalogue is
// registered with the expected types — part of the `make vet-metrics`
// gate alongside VerifyOpMetrics/VerifySpillMetrics.
func VerifyShuffleMetrics() error {
	return telemetry.VerifyFamilies(map[string]string{
		"engine_shuffle_splits_total": telemetry.TypeCounter,
		"engine_shuffle_rows_total":   telemetry.TypeCounter,
	})
}

// Spill-to-disk execution: the degradation half of the memory-governed
// contract whose accounting half is internal/memgov. Operators that
// build whole-partition state (sort copies, aggregation hash tables)
// first ask the process governor for a reservation sized to their
// working set; a denial routes them here instead of OOM-killing the
// process.
//
// Two external algorithms cover the engine's big consumers:
//
//   - External merge sort (SortWithin / SortGlobal): the input is cut
//     into consecutive segments that fit the run budget, each segment
//     is stably sorted with the operator's compiled comparator and
//     written to a temp file as length-prefixed colcodec blocks, then
//     a k-way heap merge streams the runs back. Ties between runs
//     break toward the lower run index, which together with stable
//     in-run sorting reproduces sort.SliceStable bit for bit.
//
//   - Grace hash aggregation (PartialAgg / FinalAggregate): rows are
//     hash-partitioned into shards by their group-key encoding,
//     shards spill to temp files, and each shard aggregates
//     independently on read-back. Group keys are disjoint across
//     shards and each shard's output comes back ordered by key, so a
//     k-way key merge reproduces the in-memory key order exactly.
//
// Every spill I/O failure (ENOSPC, truncation, a corrupt block) is
// wrapped in RetryableError: the task fails and can be retried on
// another slot, the process never dies. Debug hooks let tests inject
// exactly those faults.
package engine

import (
	"bytes"
	"container/heap"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"sort"
	"sync/atomic"

	"ivnt/internal/colcodec"
	"ivnt/internal/memgov"
	"ivnt/internal/relation"
)

// ------------------------------------------------------------- error taxonomy

// RetryableError marks a task failure as environmental (disk full,
// truncated spill file, transient I/O): the work is sound and a retry
// on another slot or after cleanup may succeed. The cluster driver
// requeues retryable task errors instead of failing the stage.
type RetryableError struct{ Err error }

func (e *RetryableError) Error() string { return "retryable: " + e.Err.Error() }

// Unwrap exposes the cause to errors.Is/As.
func (e *RetryableError) Unwrap() error { return e.Err }

// Retryable wraps err as a RetryableError (nil stays nil).
func Retryable(err error) error {
	if err == nil {
		return nil
	}
	return &RetryableError{Err: err}
}

// IsRetryable reports whether err is (or wraps) a RetryableError.
func IsRetryable(err error) bool {
	var re *RetryableError
	return errors.As(err, &re)
}

// PanicError is a panic recovered during task execution, converted to
// an ordinary error carrying the panic value and stack so the failure
// is diagnosable from the driver without a process death on the
// executor. The driver counts these separately and quarantines a task
// as poisoned after repeated panics.
type PanicError struct {
	Val   any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("task panic: %v\n%s", e.Val, e.Stack)
}

// IsPanic reports whether err is (or wraps) a PanicError.
func IsPanic(err error) bool {
	var pe *PanicError
	return errors.As(err, &pe)
}

// ApplyContained runs the pipeline like Apply, timing each operator into
// engine_op_seconds, with panic containment: a panic in any operator
// (or injected via SetDebugApplyHook) comes back as a *PanicError
// instead of unwinding past the executor's task loop. Both executors
// run tasks through this entry point.
func (p *StagePipeline) ApplyContained(part []relation.Row) (out []relation.Row, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Val: r, Stack: debug.Stack()}
		}
	}()
	if f := debugApplyHook.Load(); f != nil {
		(*f)()
	}
	return p.run(part, true)
}

// --------------------------------------------------------------- debug hooks

// DebugForceSpill forces every governed operator down its external
// path regardless of budget. The differential spill suite and the
// edge-case tests use it to make spilling deterministic.
var DebugForceSpill atomic.Bool

// debugSpillFailure, when set, is consulted before every spill file
// operation with the operation name ("create", "write", "read"); a
// non-nil return is injected as that operation's failure. Atomic so
// cluster tests can arm it from the test goroutine while executor
// goroutines run tasks.
var debugSpillFailure atomic.Pointer[func(op string) error]

// SetDebugSpillFailure installs (or, with nil, removes) the spill
// fault-injection hook.
func SetDebugSpillFailure(f func(op string) error) {
	if f == nil {
		debugSpillFailure.Store(nil)
		return
	}
	debugSpillFailure.Store(&f)
}

// debugSpillTruncate, when positive, chops that many bytes off the end
// of every finished spill run before read-back, simulating a partial
// write that fsync never saw.
var debugSpillTruncate atomic.Int64

// SetDebugSpillTruncate arms (n > 0) or disarms (n <= 0) spill-file
// truncation.
func SetDebugSpillTruncate(n int64) { debugSpillTruncate.Store(n) }

// debugApplyHook, when set, runs at the top of ApplyContained; a
// panicking hook exercises the containment path end to end.
var debugApplyHook atomic.Pointer[func()]

// SetDebugApplyHook installs (or, with nil, removes) the hook.
func SetDebugApplyHook(f func()) {
	if f == nil {
		debugApplyHook.Store(nil)
		return
	}
	debugApplyHook.Store(&f)
}

func spillFault(op string) error {
	if p := debugSpillFailure.Load(); p != nil {
		if err := (*p)(op); err != nil {
			return Retryable(fmt.Errorf("spill %s: %w", op, err))
		}
	}
	return nil
}

// ------------------------------------------------------------ size estimation

// rowFootprint estimates the resident bytes of one row: slice header
// plus the fixed Value structs plus string/bytes payloads. It is a
// declared working-set estimate for the governor, not a heap
// measurement — consistency matters more than exactness.
func rowFootprint(r relation.Row) int64 {
	n := int64(24 + 64*len(r))
	for i := range r {
		n += int64(len(r[i].S) + len(r[i].B))
	}
	return n
}

// RowsFootprint estimates the resident bytes of a row slice, the unit
// operators reserve from the governor before materializing state.
func RowsFootprint(rows []relation.Row) int64 {
	var n int64
	for i := range rows {
		n += rowFootprint(rows[i])
	}
	return n
}

// Spill sizing: runs target a quarter of the budget (so sort copy +
// merge buffers coexist under it), clamped to keep tiny test budgets
// from degenerating into per-row files and huge budgets from buffering
// unbounded runs.
const (
	minSpillRun   = 4 << 10
	maxSpillRun   = 32 << 20
	minSpillBlock = 2 << 10
)

func spillRunBytes(g *memgov.Governor) int64 {
	b := g.Budget()
	if b <= 0 {
		// Forced spill without a budget (debug/difftest): pick a run
		// size that exercises multi-block files without thrashing.
		return 4 << 20
	}
	rb := b / 4
	if rb < minSpillRun {
		rb = minSpillRun
	}
	if rb > maxSpillRun {
		rb = maxSpillRun
	}
	return rb
}

// ----------------------------------------------------------- spill run files

// spillWriter writes one spill run: a temp file of uvarint
// length-prefixed colcodec frames (the shared colcodec.FrameWriter
// format, which the shuffle exchange also speaks on the wire), deleted
// when the matching reader closes.
type spillWriter struct {
	f      *os.File
	fw     *colcodec.FrameWriter
	schema relation.Schema
	bytes  int64
}

func newSpillWriter(s relation.Schema) (*spillWriter, error) {
	if err := spillFault("create"); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp("", "ivnt-spill-*.run")
	if err != nil {
		return nil, Retryable(fmt.Errorf("spill create: %w", err))
	}
	return &spillWriter{f: f, fw: colcodec.NewFrameWriter(f), schema: s}, nil
}

func (w *spillWriter) writeBlock(rows []relation.Row) error {
	if len(rows) == 0 {
		return nil
	}
	if err := spillFault("write"); err != nil {
		return err
	}
	data, err := colcodec.Encode(w.schema, rows, colcodec.Options{})
	if err != nil {
		// Encode failure is deterministic (schema mismatch), not
		// environmental: retrying the task cannot help.
		return fmt.Errorf("spill encode: %w", err)
	}
	if err := w.fw.WriteFrame(data); err != nil {
		return Retryable(fmt.Errorf("spill write: %w", err))
	}
	w.bytes = w.fw.Bytes()
	return nil
}

// finish flushes, applies any armed truncation fault, rewinds and
// hands the file to a reader. On error the temp file is removed.
func (w *spillWriter) finish() (*spillReader, error) {
	if err := w.fw.Flush(); err != nil {
		w.abort()
		return nil, Retryable(fmt.Errorf("spill flush: %w", err))
	}
	if t := debugSpillTruncate.Load(); t > 0 {
		sz := w.bytes - t
		if sz < 0 {
			sz = 0
		}
		if err := w.f.Truncate(sz); err != nil {
			w.abort()
			return nil, Retryable(fmt.Errorf("spill truncate: %w", err))
		}
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		w.abort()
		return nil, Retryable(fmt.Errorf("spill seek: %w", err))
	}
	return &spillReader{f: w.f, fr: colcodec.NewFrameReader(w.f), schema: w.schema}, nil
}

func (w *spillWriter) abort() {
	name := w.f.Name()
	w.f.Close()
	os.Remove(name)
}

// spillReader streams the blocks of one finished run back. close
// removes the underlying temp file.
type spillReader struct {
	f      *os.File
	fr     *colcodec.FrameReader
	schema relation.Schema
}

// next returns the next decoded block, or (nil, io.EOF) at a clean end
// of file. Truncation mid-block or mid-header surfaces as a retryable
// error, never a short result.
func (r *spillReader) next() ([]relation.Row, error) {
	if err := spillFault("read"); err != nil {
		return nil, err
	}
	buf, err := r.fr.Next()
	if err == io.EOF {
		return nil, io.EOF
	}
	if err != nil {
		return nil, Retryable(fmt.Errorf("spill read: %w", err))
	}
	rows, err := colcodec.Decode(r.schema, buf)
	if err != nil {
		return nil, Retryable(fmt.Errorf("spill read: %w", err))
	}
	return rows, nil
}

func (r *spillReader) close() {
	name := r.f.Name()
	r.f.Close()
	os.Remove(name)
}

// -------------------------------------------------------- external merge sort

// compileRowCompare is compileComparator's three-way twin, used by the
// k-way merge (a heap needs an ordering over rows from different
// runs, not positions within one slice).
func compileRowCompare(colIdx []int) func(a, b relation.Row) int {
	idx := append([]int(nil), colIdx...)
	return func(a, b relation.Row) int {
		for _, ci := range idx {
			if c := a[ci].Compare(b[ci]); c != 0 {
				return c
			}
		}
		return 0
	}
}

// mergeCursor walks one spill run during the merge, holding a forced
// reservation for its currently decoded block only.
type mergeCursor struct {
	r     *spillReader
	rows  []relation.Row
	pos   int
	idx   int // run index, the stability tie-break
	g     *memgov.Governor
	grant *memgov.Grant
}

func (c *mergeCursor) cur() relation.Row { return c.rows[c.pos] }

// advance steps to the next row, refilling from the run file when the
// block is exhausted. Returns false at end of run.
func (c *mergeCursor) advance() (bool, error) {
	c.pos++
	if c.pos < len(c.rows) {
		return true, nil
	}
	c.grant.Release()
	rows, err := c.r.next()
	if err == io.EOF {
		c.rows = nil
		return false, nil
	}
	if err != nil {
		return false, err
	}
	c.rows, c.pos = rows, 0
	c.grant = c.g.ForceGrant(RowsFootprint(rows))
	return true, nil
}

type mergeHeap struct {
	cs  []*mergeCursor
	cmp func(a, b relation.Row) int
}

func (h *mergeHeap) Len() int { return len(h.cs) }
func (h *mergeHeap) Less(i, j int) bool {
	if c := h.cmp(h.cs[i].cur(), h.cs[j].cur()); c != 0 {
		return c < 0
	}
	return h.cs[i].idx < h.cs[j].idx
}
func (h *mergeHeap) Swap(i, j int) { h.cs[i], h.cs[j] = h.cs[j], h.cs[i] }
func (h *mergeHeap) Push(x any)    { h.cs = append(h.cs, x.(*mergeCursor)) }
func (h *mergeHeap) Pop() any {
	c := h.cs[len(h.cs)-1]
	h.cs = h.cs[:len(h.cs)-1]
	return c
}

// externalSortRows spills consecutive budget-sized segments of rows as
// sorted runs and merges them back. sortSeg must return a *stably*
// sorted copy of its segment under the same order cmp encodes; the
// merge then breaks ties toward the lower run index, so an element's
// final position depends only on (key, original index) — exactly
// sort.SliceStable over the whole input.
func externalSortRows(g *memgov.Governor, s relation.Schema, rows []relation.Row,
	sortSeg func([]relation.Row) []relation.Row, cmp func(a, b relation.Row) int,
	label string) ([]relation.Row, error) {

	mSpills.With(label).Inc()
	runBytes := spillRunBytes(g)
	blockBytes := runBytes / 8
	if blockBytes < minSpillBlock {
		blockBytes = minSpillBlock
	}

	var readers []*spillReader
	defer func() {
		for _, r := range readers {
			r.close()
		}
	}()

	// Write phase under one run-sized reservation: the sorted copy of
	// the current segment is the bounded working set. ForceGrant keeps
	// a pathologically small budget from deadlocking the spiller.
	wg := g.TryGrant(runBytes)
	if wg == nil {
		wg = g.ForceGrant(minSpillRun)
	}
	var spilled int64
	flushRun := func(seg []relation.Row) error {
		sorted := sortSeg(seg)
		w, err := newSpillWriter(s)
		if err != nil {
			return err
		}
		bs := 0
		var bacc int64
		for i := range sorted {
			bacc += rowFootprint(sorted[i])
			if bacc >= blockBytes || i == len(sorted)-1 {
				if err := w.writeBlock(sorted[bs : i+1]); err != nil {
					w.abort()
					return err
				}
				bs, bacc = i+1, 0
			}
		}
		r, err := w.finish()
		if err != nil {
			return err
		}
		spilled += w.bytes
		readers = append(readers, r)
		return nil
	}
	start := 0
	var acc int64
	for i := range rows {
		acc += rowFootprint(rows[i])
		if acc >= runBytes {
			if err := flushRun(rows[start : i+1]); err != nil {
				wg.Release()
				return nil, err
			}
			start, acc = i+1, 0
		}
	}
	if start < len(rows) {
		if err := flushRun(rows[start:]); err != nil {
			wg.Release()
			return nil, err
		}
	}
	wg.Release()
	mSpillBytes.With(label).Add(spilled)

	// Merge phase: one decoded block per run is resident, each under
	// its own forced reservation released on refill.
	h := &mergeHeap{cmp: cmp}
	defer func() {
		for _, c := range h.cs {
			c.grant.Release()
		}
	}()
	for i, r := range readers {
		blk, err := r.next()
		if err == io.EOF {
			continue
		}
		if err != nil {
			return nil, err
		}
		h.cs = append(h.cs, &mergeCursor{
			r: r, rows: blk, idx: i, g: g, grant: g.ForceGrant(RowsFootprint(blk)),
		})
	}
	heap.Init(h)
	out := make([]relation.Row, 0, len(rows))
	for h.Len() > 0 {
		c := h.cs[0]
		out = append(out, c.cur())
		more, err := c.advance()
		if err != nil {
			return nil, err
		}
		if more {
			heap.Fix(h, 0)
		} else {
			heap.Pop(h)
		}
	}
	return out, nil
}

// applySort is the governed OpSortWithin kernel: in-memory when the
// working set fits the budget (or no budget is set), external merge
// sort otherwise.
func (st *compiledOp) applySort(rows []relation.Row) ([]relation.Row, error) {
	g := memgov.Default()
	sortSeg := func(seg []relation.Row) []relation.Row {
		cp := make([]relation.Row, len(seg))
		copy(cp, seg)
		sort.SliceStable(cp, st.less(cp))
		return cp
	}
	if !DebugForceSpill.Load() {
		if g.Unlimited() {
			return sortSeg(rows), nil
		}
		if gr := g.TryGrant(RowsFootprint(rows)); gr != nil {
			defer gr.Release()
			return sortSeg(rows), nil
		}
	}
	return externalSortRows(g, st.in, rows, sortSeg, compileRowCompare(st.colIdx), "sortwithin")
}

// SortRelation globally sorts rel by cols under the memory governor:
// the in-memory path is relation.SortBy, the degraded path the same
// external merge sort the per-partition operator uses. Dataset
// SortGlobal routes through here.
func SortRelation(rel *relation.Relation, cols ...string) (*relation.Relation, error) {
	idx := make([]int, len(cols))
	for i, c := range cols {
		j := rel.Schema.Index(c)
		if j < 0 {
			return nil, fmt.Errorf("engine: sort key %q not in schema %s", c, rel.Schema)
		}
		idx[i] = j
	}
	g := memgov.Default()
	if !DebugForceSpill.Load() {
		if g.Unlimited() {
			return rel.SortBy(true, cols...)
		}
		if gr := g.TryGrant(2 * RowsFootprint(rel.Rows())); gr != nil {
			defer gr.Release()
			return rel.SortBy(true, cols...)
		}
	}
	less := compileComparator(idx)
	sortSeg := func(seg []relation.Row) []relation.Row {
		cp := make([]relation.Row, len(seg))
		copy(cp, seg)
		sort.SliceStable(cp, less(cp))
		return cp
	}
	sorted, err := externalSortRows(g, rel.Schema, rel.Rows(), sortSeg, compileRowCompare(idx), "sortglobal")
	if err != nil {
		return nil, err
	}
	return relation.FromRows(rel.Schema, sorted), nil
}

// ------------------------------------------------------ grace hash aggregation

const aggShards = 8

// groupKeyAppend appends the canonical group-key encoding of row r
// (the same AsString + NUL framing Aggregate and MergePartials key
// their hash tables with) to kb.
func groupKeyAppend(kb []byte, r relation.Row, keyIdx []int) []byte {
	for _, ci := range keyIdx {
		kb = append(kb, r[ci].AsString()...)
		kb = append(kb, 0)
	}
	return kb
}

// fnvShard hashes a group-key encoding to a shard (FNV-1a).
func fnvShard(kb []byte) int {
	h := uint64(14695981039346656037)
	for _, b := range kb {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return int(h % aggShards)
}

// externalGroupReduce is the grace-hash skeleton shared by external
// PartialAgg and external FinalAggregate: hash-partition the input
// rows into shards by group key, spill each shard, then reduce the
// shards independently and merge their (key-ordered, key-disjoint)
// outputs back into one globally key-ordered row slice.
//
// reduce is the in-memory aggregation applied to one shard's rows; its
// output must be ordered by the same key encoding, with the group
// columns leading (both Aggregate and MergePartials satisfy this).
// nkey is how many leading output columns form the key. parts is
// iterated in order so per-group accumulation order (first/last
// semantics) matches the in-memory pass exactly.
//
// Degradation note: a single pathological key still lands all its rows
// in one shard; the shard's *output* stays one row, but its input must
// fit memory during reduce. That bound is documented in docs/MEMORY.md.
func externalGroupReduce(g *memgov.Governor, s relation.Schema, parts [][]relation.Row,
	keyIdx []int, nkey int, reduce func([]relation.Row) ([]relation.Row, error),
	label string) ([]relation.Row, error) {

	mSpills.With(label).Inc()
	flushBytes := spillRunBytes(g) / aggShards
	if flushBytes < minSpillBlock {
		flushBytes = minSpillBlock
	}

	var writers [aggShards]*spillWriter
	cleanupWriters := func() {
		for _, w := range writers {
			if w != nil {
				w.abort()
			}
		}
	}

	// Scatter phase under one bounded reservation for the shard
	// buffers.
	bg := g.TryGrant(spillRunBytes(g))
	if bg == nil {
		bg = g.ForceGrant(minSpillRun)
	}
	var bufs [aggShards][]relation.Row
	var baccs [aggShards]int64
	var spilled int64
	flushShard := func(si int) error {
		if len(bufs[si]) == 0 {
			return nil
		}
		if writers[si] == nil {
			w, err := newSpillWriter(s)
			if err != nil {
				return err
			}
			writers[si] = w
		}
		if err := writers[si].writeBlock(bufs[si]); err != nil {
			return err
		}
		bufs[si] = bufs[si][:0]
		baccs[si] = 0
		return nil
	}
	var kb []byte
	for _, part := range parts {
		for _, r := range part {
			kb = groupKeyAppend(kb[:0], r, keyIdx)
			si := fnvShard(kb)
			bufs[si] = append(bufs[si], r)
			baccs[si] += rowFootprint(r)
			if baccs[si] >= flushBytes {
				if err := flushShard(si); err != nil {
					bg.Release()
					cleanupWriters()
					return nil, err
				}
			}
		}
	}
	for si := range bufs {
		if err := flushShard(si); err != nil {
			bg.Release()
			cleanupWriters()
			return nil, err
		}
	}
	bg.Release()
	for _, w := range writers {
		if w != nil {
			spilled += w.bytes
		}
	}
	mSpillBytes.With(label).Add(spilled)

	// Reduce phase: read one shard back at a time (under a forced
	// reservation for its actual footprint), aggregate it, keep only
	// the condensed output.
	type shardOut struct {
		rows  []relation.Row
		grant *memgov.Grant
	}
	var outs []shardOut
	defer func() {
		for _, o := range outs {
			o.grant.Release()
		}
	}()
	for si := 0; si < aggShards; si++ {
		w := writers[si]
		if w == nil {
			continue
		}
		writers[si] = nil
		r, err := w.finish()
		if err != nil {
			cleanupWriters()
			return nil, err
		}
		// The reservation grows with the accumulating shard: each block
		// swaps the previous whole-shard grant for one covering the new
		// total, so Used() tracks the true resident footprint.
		var shardRows []relation.Row
		var shardFoot int64
		var sg *memgov.Grant
		for {
			blk, berr := r.next()
			if berr == io.EOF {
				break
			}
			if berr != nil {
				sg.Release()
				r.close()
				cleanupWriters()
				return nil, berr
			}
			shardRows = append(shardRows, blk...)
			shardFoot += RowsFootprint(blk)
			ng := g.ForceGrant(shardFoot)
			sg.Release()
			sg = ng
		}
		r.close()
		agged, err := reduce(shardRows)
		if err != nil {
			sg.Release()
			cleanupWriters()
			return nil, err
		}
		sg.Release()
		outs = append(outs, shardOut{rows: agged, grant: g.ForceGrant(RowsFootprint(agged))})
	}

	// Merge phase: shard outputs are key-ordered and key-disjoint, so
	// an n-way minimum walk reproduces the global key order.
	type cursor struct {
		rows []relation.Row
		pos  int
		key  []byte
	}
	outIdx := keyRange(nkey)
	cs := make([]*cursor, 0, len(outs))
	var total int
	for _, o := range outs {
		if len(o.rows) == 0 {
			continue
		}
		c := &cursor{rows: o.rows}
		c.key = groupKeyAppend(nil, c.rows[0], outIdx)
		cs = append(cs, c)
		total += len(o.rows)
	}
	merged := make([]relation.Row, 0, total)
	for len(cs) > 0 {
		min := 0
		for i := 1; i < len(cs); i++ {
			if bytes.Compare(cs[i].key, cs[min].key) < 0 {
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
	return merged, nil
}

// keyRange returns [0, 1, ..., n-1]: the leading group columns of an
// aggregation output row.
func keyRange(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// applyAgg is the governed OpPartialAgg kernel. The in-memory hash
// table plus output is bounded by roughly twice the input footprint;
// when that reservation is denied, grace hash aggregation shards the
// input through disk.
func (st *compiledOp) applyAgg(rows []relation.Row) ([]relation.Row, error) {
	g := memgov.Default()
	if !DebugForceSpill.Load() {
		if g.Unlimited() {
			return applyPartialAgg(st.in, rows, st.desc.GroupBy, st.desc.Aggs)
		}
		if gr := g.TryGrant(2 * RowsFootprint(rows)); gr != nil {
			defer gr.Release()
			return applyPartialAgg(st.in, rows, st.desc.GroupBy, st.desc.Aggs)
		}
	}
	keyIdx := make([]int, len(st.desc.GroupBy))
	for i, c := range st.desc.GroupBy {
		keyIdx[i] = st.in.MustIndex(c)
	}
	return externalGroupReduce(g, st.in, [][]relation.Row{rows}, keyIdx, len(st.desc.GroupBy),
		func(shard []relation.Row) ([]relation.Row, error) {
			return applyPartialAgg(st.in, shard, st.desc.GroupBy, st.desc.Aggs)
		}, "partialagg")
}

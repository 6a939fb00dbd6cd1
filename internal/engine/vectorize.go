package engine

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"time"

	"ivnt/internal/expr"
	"ivnt/internal/relation"
)

// This file is the batch execution path, the only way a StagePipeline
// runs. Instead of walking one row at a time through each operator — a
// recursive expression interpretation and a fresh row allocation per
// operator per row — the pipeline is planned once into segments:
// maximal runs of fusable window-free Filter/Project/AddColumn steps
// execute as a single pass over 1024-row batches with a selection
// vector, materializing output rows exactly once per fused run out of a
// shared slab, and the remaining operators get batch-aware kernels
// (notably the broadcast join, which pre-hashes probe keys per batch
// and skips per-candidate key re-checks on single-key buckets). The
// row-at-a-time reference is internal/oracle; internal/difftest holds
// the pipeline bitwise-equal to it on every seeded workload.

// batchSize is the number of input rows processed per fused batch.
// 1024 rows keeps a batch's selection vector and scratch columns in
// cache while amortizing per-batch overhead.
const batchSize = 1024

// DebugMutateSelection, when non-nil, rewrites the selection vector
// after every fused filter step. It exists solely so the differential
// harness can inject a selection-vector bug and prove it would be
// caught; production code never sets it.
var DebugMutateSelection func(sel []int32) []int32

// vecSegment is one planned unit of vectorized execution: either a
// fused run of Filter/Project/AddColumn steps or a single operator.
type vecSegment struct {
	fused *fusedRun
	step  int // index into StagePipeline.steps when fused == nil
}

// fusedStep is one executable step inside a fused run. Project steps
// compile away entirely — they only permute the output mapping.
type fusedStep struct {
	kind OpKind
	prog *expr.FlatProgram // column-remapped into the run's physical space
	dst  int               // scratch slot written by OpAddColumn, -1 for OpFilter
	// skipCols, when non-nil, lists the input row columns this filter
	// reads — the columns whose bitwise equality across rows licenses
	// verdict reuse. nil disables run skipping for the step (the program
	// reads a scratch column or uses window state).
	skipCols []int32
}

// fusedRun is a maximal run of fusable steps compiled against a fixed
// physical column space: indexes below inWidth are input row columns,
// inWidth+k is scratch column k. outSrc maps each output column to its
// physical source; copyOut is false when the run is filters-only and
// output rows are the input rows themselves.
type fusedRun struct {
	kinds    []OpKind // constituent op kinds, in order (for ObserveOp)
	steps    []fusedStep
	inWidth  int
	nScratch int
	outSrc   []int32
	copyOut  bool
	// outRow/outScratch split outSrc by source so the materialize loop
	// avoids a per-cell branch: output column dst copies from input row
	// column src, respectively scratch column src.
	outRow     []srcMap
	outScratch []srcMap
}

type srcMap struct{ dst, src int32 }

// vecScratch is the pooled per-Apply working set: selection vector,
// scratch columns, probe-hash buffer and the flat-program machine.
type vecScratch struct {
	sel     []int32
	cols    [][]relation.Value
	hashes  []uint64
	machine expr.Machine
}

var vecPool = sync.Pool{New: func() any { return &vecScratch{} }}

// fusable reports whether a compiled step may join a fused run. Window
// programs are excluded: lag history must see the operator's own input
// rows, which fusion by design never materializes.
func fusable(st *compiledOp) bool {
	switch st.desc.Kind {
	case OpProject:
		return true
	case OpFilter, OpAddColumn:
		return !st.prog.Window
	}
	return false
}

// buildVecPlan slices the compiled steps into fused runs and single-op
// segments. Called once from NewStagePipeline.
func (p *StagePipeline) buildVecPlan() {
	var run []int
	flush := func() {
		if len(run) == 0 {
			return
		}
		p.vec = append(p.vec, vecSegment{fused: p.compileFusedRun(run)})
		run = nil
	}
	for i := range p.steps {
		if fusable(&p.steps[i]) {
			run = append(run, i)
			continue
		}
		flush()
		p.vec = append(p.vec, vecSegment{step: i})
	}
	flush()
}

// compileFusedRun remaps each step's program from its logical input
// schema into the run's physical column space and folds projections
// into the output mapping.
func (p *StagePipeline) compileFusedRun(stepIdx []int) *fusedRun {
	first := &p.steps[stepIdx[0]]
	run := &fusedRun{inWidth: len(first.in.Cols)}
	// cur maps the current intermediate schema's logical columns to
	// physical indexes.
	cur := make([]int32, run.inWidth)
	for i := range cur {
		cur[i] = int32(i)
	}
	for _, si := range stepIdx {
		st := &p.steps[si]
		run.kinds = append(run.kinds, st.desc.Kind)
		switch st.desc.Kind {
		case OpFilter:
			remapped := st.prog.RemapColumns(func(c int) int { return int(cur[c]) })
			run.steps = append(run.steps, fusedStep{kind: OpFilter, prog: remapped, dst: -1,
				skipCols: skipColumns(remapped, run.inWidth)})
		case OpAddColumn:
			remapped := st.prog.RemapColumns(func(c int) int { return int(cur[c]) })
			slot := run.nScratch
			run.nScratch++
			run.steps = append(run.steps, fusedStep{kind: OpAddColumn, prog: remapped, dst: slot})
			cur = append(cur, int32(run.inWidth+slot))
			run.copyOut = true
		case OpProject:
			next := make([]int32, len(st.colIdx))
			for k, ci := range st.colIdx {
				next[k] = cur[ci]
			}
			cur = next
			run.copyOut = true
		}
	}
	run.outSrc = cur
	for k, src := range cur {
		if int(src) < run.inWidth {
			run.outRow = append(run.outRow, srcMap{int32(k), src})
		} else {
			run.outScratch = append(run.outScratch, srcMap{int32(k), src - int32(run.inWidth)})
		}
	}
	return run
}

// skipColumns returns the filter's referenced columns when every one is
// an input row column (physical index below inWidth) and the program is
// window-free — the conditions under which bitwise-equal referenced
// cells guarantee an equal verdict. Any scratch-column or window
// reference returns nil, disabling run skipping for the step.
func skipColumns(fp *expr.FlatProgram, inWidth int) []int32 {
	if fp.Window {
		return nil
	}
	cols := fp.Columns()
	out := make([]int32, len(cols))
	for k, c := range cols {
		if c >= inWidth {
			return nil
		}
		out[k] = int32(c)
	}
	return out
}

// cellsSameBits reports bitwise equality of the given columns across
// two rows, with short rows reading as null exactly like OpPushCol.
func cellsSameBits(a, b relation.Row, cols []int32) bool {
	for _, c := range cols {
		av, bv := relation.Null(), relation.Null()
		if int(c) < len(a) {
			av = a[c]
		}
		if int(c) < len(b) {
			bv = b[c]
		}
		if av.K != bv.K || av.I != bv.I ||
			math.Float64bits(av.F) != math.Float64bits(bv.F) ||
			av.S != bv.S || !bytes.Equal(av.B, bv.B) {
			return false
		}
	}
	return true
}

// run executes the planned segments over one partition. With
// instrument set, each segment is timed into engine_op_seconds; a fused
// run is one timed pass, so each constituent operator kind is observed
// with the run's duration.
func (p *StagePipeline) run(part []relation.Row, instrument bool) ([]relation.Row, error) {
	sc := vecPool.Get().(*vecScratch)
	defer vecPool.Put(sc)
	rows := part
	for _, seg := range p.vec {
		var t0 time.Time
		if instrument {
			t0 = time.Now()
		}
		if seg.fused != nil {
			rows = runFused(seg.fused, rows, sc)
			if instrument {
				// A fused run is one pass: each constituent operator is
				// observed with the run's duration (see docs/PERFORMANCE.md).
				d := time.Since(t0)
				for _, k := range seg.fused.kinds {
					ObserveOp(k, d)
				}
			}
			continue
		}
		st := &p.steps[seg.step]
		out, err := st.applyVecSingle(rows, sc)
		if instrument {
			ObserveOp(st.desc.Kind, time.Since(t0))
		}
		if err != nil {
			return nil, err
		}
		rows = out
	}
	return rows, nil
}

// applyVecSingle dispatches one non-fused operator to its batch-aware
// kernel, falling through to compiledOp.apply for operators whose work
// is inherently whole-partition (dedup, sort, partial agg, shuffle
// exchange).
func (st *compiledOp) applyVecSingle(rows []relation.Row, sc *vecScratch) ([]relation.Row, error) {
	switch st.desc.Kind {
	case OpBroadcastJoin:
		return st.applyJoinVec(rows, sc), nil
	case OpFilter:
		return applyWindowFilter(st.prog, rows, sc), nil
	case OpAddColumn:
		return applyWindowAddCol(st.prog, rows, sc), nil
	case OpEvalRule:
		return st.applyEvalRuleVec(rows, sc)
	}
	return st.apply(rows)
}

// runFused executes one fused run over the partition in batches. Per
// batch: seed the selection vector, run each step over the surviving
// selection (filters compact it in place, computed columns write their
// scratch vector at selected positions only), then materialize the
// survivors once — a single slab allocation for the whole batch.
func runFused(run *fusedRun, rows []relation.Row, sc *vecScratch) []relation.Row {
	out := make([]relation.Row, 0, len(rows))
	if cap(sc.sel) < batchSize {
		sc.sel = make([]int32, batchSize)
	}
	for len(sc.cols) < run.nScratch {
		sc.cols = append(sc.cols, nil)
	}
	for i := 0; i < run.nScratch; i++ {
		if cap(sc.cols[i]) < batchSize {
			sc.cols[i] = make([]relation.Value, batchSize)
		}
		sc.cols[i] = sc.cols[i][:batchSize]
	}
	w := len(run.outSrc)
	for lo := 0; lo < len(rows); lo += batchSize {
		hi := min(lo+batchSize, len(rows))
		sel := sc.sel[:0]
		for i := lo; i < hi; i++ {
			sel = append(sel, int32(i))
		}
		for si := range run.steps {
			step := &run.steps[si]
			if step.dst < 0 {
				kept := sel[:0]
				if step.skipCols != nil {
					// Run skipping: selected rows whose referenced cells are
					// bitwise-identical to the previously evaluated row reuse
					// its verdict. Dict/RLE-encoded segment scans make these
					// runs long. Sound because fused filters are window-free
					// and every expression builtin is pure: equal inputs give
					// equal verdicts.
					last := int32(-1)
					verdict := false
					skipped := int64(0)
					for _, i := range sel {
						if last >= 0 && cellsSameBits(rows[i], rows[last], step.skipCols) {
							skipped++
						} else {
							verdict = sc.machine.EvalColsAt(step.prog, rows, int(i), run.inWidth, sc.cols, lo).AsBool()
							last = i
						}
						if verdict {
							kept = append(kept, i)
						}
					}
					if skipped > 0 {
						runSkipRowsCtr.Add(skipped)
					}
				} else {
					for _, i := range sel {
						if sc.machine.EvalColsAt(step.prog, rows, int(i), run.inWidth, sc.cols, lo).AsBool() {
							kept = append(kept, i)
						}
					}
				}
				sel = kept
				if DebugMutateSelection != nil {
					sel = DebugMutateSelection(sel)
				}
			} else {
				dst := sc.cols[step.dst]
				for _, i := range sel {
					dst[int(i)-lo] = sc.machine.EvalColsAt(step.prog, rows, int(i), run.inWidth, sc.cols, lo)
				}
			}
		}
		if !run.copyOut {
			for _, i := range sel {
				out = append(out, rows[i])
			}
			continue
		}
		slab := make([]relation.Value, len(sel)*w)
		for n, i := range sel {
			nr := relation.Row(slab[n*w : (n+1)*w : (n+1)*w])
			r := rows[i]
			for _, m := range run.outRow {
				nr[m.dst] = r[m.src]
			}
			for _, m := range run.outScratch {
				nr[m.dst] = sc.cols[m.src][int(i)-lo]
			}
			out = append(out, nr)
		}
	}
	vectorizedBatchesCtr.Add(int64((len(rows) + batchSize - 1) / batchSize))
	for _, k := range run.kinds {
		fusedStepsCtr[k].Inc()
	}
	return out
}

// slab hands out fixed-width rows sliced from chunked backing arrays:
// one allocation per batchSize rows instead of one per row. Rows are
// capacity-clamped so appending to one can never bleed into its
// neighbor.
type slab struct {
	buf []relation.Value
	w   int
}

func (s *slab) next() relation.Row {
	if len(s.buf) < s.w {
		s.buf = make([]relation.Value, s.w*batchSize)
	}
	r := relation.Row(s.buf[:s.w:s.w])
	s.buf = s.buf[s.w:]
	return r
}

// applyJoinVec probes the broadcast table batch-at-a-time: probe keys
// are pre-hashed into a reused buffer, and buckets whose build rows all
// share one key (the common case — a multi-row bucket otherwise means
// a 64-bit hash collision) verify keysEqual once per probe row instead
// of once per candidate.
func (st *compiledOp) applyJoinVec(rows []relation.Row, sc *vecScratch) []relation.Row {
	var out []relation.Row
	inW := len(st.in.Cols)
	sl := slab{w: inW + len(st.keepIdx)}
	if cap(sc.hashes) < batchSize {
		sc.hashes = make([]uint64, batchSize)
	}
	for lo := 0; lo < len(rows); lo += batchSize {
		hi := min(lo+batchSize, len(rows))
		hs := sc.hashes[:hi-lo]
		for i := lo; i < hi; i++ {
			hs[i-lo] = rows[i].Hash(st.leftIdx...)
		}
		vectorizedBatchesCtr.Inc()
		for i := lo; i < hi; i++ {
			b := st.hash[hs[i-lo]]
			if b == nil {
				continue
			}
			r := rows[i]
			if b.uniform {
				if !keysEqual(r, b.rows[0], st.leftIdx, st.rightIdx) {
					continue
				}
				for _, cand := range b.rows {
					out = append(out, joinRow(&sl, r, cand, st.keepIdx))
				}
				continue
			}
			for _, cand := range b.rows {
				if keysEqual(r, cand, st.leftIdx, st.rightIdx) {
					out = append(out, joinRow(&sl, r, cand, st.keepIdx))
				}
			}
		}
	}
	return out
}

func joinRow(sl *slab, r, cand relation.Row, keepIdx []int) relation.Row {
	nr := sl.next()
	copy(nr, r)
	for k, ci := range keepIdx {
		nr[len(r)+k] = cand[ci]
	}
	return nr
}

// applyWindowFilter is the batch kernel for window-using filters: flat
// evaluation over the full partition (lag must see this operator's
// input), output rows are references so no slab is needed.
func applyWindowFilter(fp *expr.FlatProgram, rows []relation.Row, sc *vecScratch) []relation.Row {
	out := make([]relation.Row, 0, len(rows))
	for i := range rows {
		if sc.machine.EvalBoolAt(fp, rows, i) {
			out = append(out, rows[i])
		}
	}
	vectorizedBatchesCtr.Inc()
	return out
}

// applyWindowAddCol is the batch kernel for window-using computed
// columns: flat evaluation over the full partition, slab-backed output
// rows.
func applyWindowAddCol(fp *expr.FlatProgram, rows []relation.Row, sc *vecScratch) []relation.Row {
	out := make([]relation.Row, 0, len(rows))
	if len(rows) == 0 {
		return out
	}
	sl := slab{w: len(rows[0]) + 1}
	for i, r := range rows {
		nr := sl.next()
		copy(nr, r)
		nr[len(r)] = sc.machine.EvalAt(fp, rows, i)
		out = append(out, nr)
	}
	vectorizedBatchesCtr.Inc()
	return out
}

// applyEvalRuleVec evaluates per-row dynamic rules through their flat
// programs with slab-backed output rows. Rules vary per row, so there
// is nothing to fuse, but the flat machine and slab still remove the
// per-row recursion and row allocation.
func (st *compiledOp) applyEvalRuleVec(rows []relation.Row, sc *vecScratch) ([]relation.Row, error) {
	out := make([]relation.Row, 0, len(rows))
	if len(rows) == 0 {
		return out, nil
	}
	sl := slab{w: len(st.in.Cols) + 1}
	for i, r := range rows {
		var v relation.Value
		src := r[st.ruleIdx].AsString()
		if src != "" {
			prog, err := st.rules.get(src)
			if err != nil {
				return nil, fmt.Errorf("engine: row rule %q: %w", src, err)
			}
			v = sc.machine.EvalAt(prog, rows, i)
		}
		nr := sl.next()
		copy(nr, r)
		nr[len(r)] = v
		out = append(out, nr)
	}
	vectorizedBatchesCtr.Inc()
	return out, nil
}

package engine

import (
	"fmt"

	"ivnt/internal/expr"
	"ivnt/internal/relation"
)

// StagePipeline is a validated chain of narrow operators bound to an
// input schema. Building one compiles all static expressions once and
// plans the chain into batch kernels (vectorize.go); Apply and
// ApplyContained then run it over one partition. A pipeline is safe
// for concurrent calls from multiple workers.
type StagePipeline struct {
	in    relation.Schema
	out   relation.Schema
	steps []compiledOp
	vec   []vecSegment // execution plan (see vectorize.go)
}

type compiledOp struct {
	desc OpDesc
	in   relation.Schema // input schema of this step
	out  relation.Schema
	prog *expr.FlatProgram // OpFilter, OpAddColumn
	// broadcast hash table for OpBroadcastJoin
	hash     map[uint64]*joinBucket
	rightIdx []int // key column indexes in the broadcast table
	leftIdx  []int
	keepIdx  []int // non-key broadcast columns appended to output
	colIdx   []int // resolved op.Cols
	ruleIdx  int   // OpEvalRule rule column
	rules    *ruleCache
	less     func(cp []relation.Row) func(a, b int) bool // OpSortWithin, precompiled
}

// joinBucket is one build-side hash bucket. uniform means every build
// row in the bucket carries the same key tuple, so a probe row that
// matches the first row matches them all — the batch join kernel then
// skips the per-candidate keysEqual re-checks that only a 64-bit hash
// collision could need.
type joinBucket struct {
	rows    []relation.Row
	uniform bool
}

// NewStagePipeline validates and compiles ops against the input schema.
func NewStagePipeline(in relation.Schema, ops []OpDesc) (*StagePipeline, error) {
	p := &StagePipeline{in: in}
	cur := in
	for i, op := range ops {
		next, err := opSchema(cur, op)
		if err != nil {
			return nil, fmt.Errorf("engine: op %d (%s): %w", i, op.Kind, err)
		}
		st := compiledOp{desc: op, in: cur, out: next, ruleIdx: -1}
		switch op.Kind {
		case OpFilter, OpAddColumn:
			var prog *expr.Program
			if prog, err = expr.Compile(op.Expr, cur); err == nil {
				st.prog = prog.Flatten()
			}
		case OpEvalRule:
			st.ruleIdx = cur.MustIndex(op.RuleCol)
			st.rules = newRuleCache(cur)
		case OpBroadcastJoin:
			j := op.Join
			st.leftIdx = make([]int, len(j.LeftKeys))
			for k, name := range j.LeftKeys {
				st.leftIdx[k] = cur.MustIndex(name)
			}
			st.rightIdx = make([]int, len(j.RightKeys))
			rightKeySet := map[string]bool{}
			for k, name := range j.RightKeys {
				st.rightIdx[k] = j.Schema.MustIndex(name)
				rightKeySet[name] = true
			}
			for ci, c := range j.Schema.Cols {
				if !rightKeySet[c.Name] {
					st.keepIdx = append(st.keepIdx, ci)
				}
			}
			st.hash = make(map[uint64]*joinBucket, len(j.Rows))
			for _, r := range j.Rows {
				h := r.Hash(st.rightIdx...)
				b := st.hash[h]
				if b == nil {
					b = &joinBucket{uniform: true}
					st.hash[h] = b
				} else if b.uniform && !keysEqual(r, b.rows[0], st.rightIdx, st.rightIdx) {
					b.uniform = false
				}
				b.rows = append(b.rows, r)
			}
		case OpProject, OpDedupConsecutive, OpSortWithin, OpShuffleExchange:
			st.colIdx = make([]int, len(op.Cols))
			for k, name := range op.Cols {
				st.colIdx[k] = cur.MustIndex(name)
			}
			if op.Kind == OpSortWithin {
				st.less = compileComparator(st.colIdx)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("engine: op %d (%s): %w", i, op.Kind, err)
		}
		p.steps = append(p.steps, st)
		cur = next
	}
	p.out = cur
	p.buildVecPlan()
	return p, nil
}

// compileComparator builds the OpSortWithin comparator factory once at
// pipeline compile time, with unrolled shapes for the common one- and
// two-key sorts. The factory closes directly over the row slice being
// sorted, so each sort.SliceStable comparison is a single call with no
// per-comparison column-index loop setup.
func compileComparator(colIdx []int) func(cp []relation.Row) func(a, b int) bool {
	switch len(colIdx) {
	case 0:
		return func([]relation.Row) func(a, b int) bool {
			return func(a, b int) bool { return false }
		}
	case 1:
		c0 := colIdx[0]
		return func(cp []relation.Row) func(a, b int) bool {
			return func(a, b int) bool { return cp[a][c0].Compare(cp[b][c0]) < 0 }
		}
	case 2:
		c0, c1 := colIdx[0], colIdx[1]
		return func(cp []relation.Row) func(a, b int) bool {
			return func(a, b int) bool {
				if c := cp[a][c0].Compare(cp[b][c0]); c != 0 {
					return c < 0
				}
				return cp[a][c1].Compare(cp[b][c1]) < 0
			}
		}
	default:
		idx := colIdx
		return func(cp []relation.Row) func(a, b int) bool {
			return func(a, b int) bool {
				for _, ci := range idx {
					if c := cp[a][ci].Compare(cp[b][ci]); c != 0 {
						return c < 0
					}
				}
				return false
			}
		}
	}
}

// InputSchema returns the schema the pipeline consumes.
func (p *StagePipeline) InputSchema() relation.Schema { return p.in }

// OutputSchema returns the schema the pipeline produces.
func (p *StagePipeline) OutputSchema() relation.Schema { return p.out }

// Apply runs the pipeline over one partition and returns the produced
// rows. It is unobserved, for tests and benchmarks that must not
// measure clock reads; executors run tasks through ApplyContained. The
// input slice is never mutated.
func (p *StagePipeline) Apply(part []relation.Row) ([]relation.Row, error) {
	return p.run(part, false)
}

// apply runs one of the whole-partition kernels: dedup, the governed
// sort and partial aggregation, and the shuffle exchange. Every other
// operator has a batch kernel (applyVecSingle) or runs inside a fused
// run.
func (st *compiledOp) apply(rows []relation.Row) ([]relation.Row, error) {
	switch st.desc.Kind {
	case OpDedupConsecutive:
		out := make([]relation.Row, 0, len(rows))
		for i, r := range rows {
			if i > 0 && sameOn(r, rows[i-1], st.colIdx) {
				continue
			}
			out = append(out, r)
		}
		return out, nil

	case OpSortWithin:
		// Governed: in-memory sort.SliceStable when the working set fits
		// the memory budget, external merge sort otherwise (spill.go).
		return st.applySort(rows)

	case OpPartialAgg:
		// Governed: in-memory hash aggregation when it fits, grace hash
		// aggregation through disk otherwise (spill.go).
		return st.applyAgg(rows)

	case OpShuffleExchange:
		return st.applyShuffleExchange(rows)
	}
	return nil, fmt.Errorf("engine: unknown op kind %v", st.desc.Kind)
}

func keysEqual(l, r relation.Row, li, ri []int) bool {
	for k := range li {
		if !l[li[k]].Equal(r[ri[k]]) {
			return false
		}
	}
	return true
}

func sameOn(a, b relation.Row, idx []int) bool {
	for _, i := range idx {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

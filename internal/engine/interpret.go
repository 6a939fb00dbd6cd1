package engine

import (
	"fmt"

	"ivnt/internal/expr"
	"ivnt/internal/relation"
	"ivnt/internal/rules"
	"ivnt/internal/trace"
)

// This file is OpInterpret: information extraction (Algorithm 1 lines
// 3–6) as one operator. Its specification is the relational plan
//
//	K_b ⋈ U on (bid, mid) = (ubid, umid)   lines 3–4
//	lrel = u₁ over the join row            line 5
//	π (t, bid, sid, lrel, rule)
//	v = u₂ over that projected row         line 6
//	π (t, sid, v, bid)
//
// which internal/oracle runs as written. The kernel builds none of
// those intermediate rows. Each distinct rule text is compiled once per
// stage against the schema the plan evaluates it in; each K_b row
// probes a (bid, mid) hash of the table, where a miss is the line-3
// preselection; each matching tuple, in table order, evaluates u₁
// against the K_b row plus the tuple's own cells (a slice(l, …) u₁
// yields a sub-slice of l, no copy), evaluates u₂ over one reused
// scratch row, and emits a 4-cell K_s row from a slab.
//
// Rule semantics kept from the relational plan: an empty rule text
// yields null, and a rule that fails to compile fails the stage when a
// row first reaches it, not before. Rules are row-local: a window
// function (lag/gap/delta) in u₁ or u₂ is a compile error, because a
// signal's value depends on its own message only.

// interpSchemas are the schemas of the relational plan OpInterpret
// stands for.
type interpSchemas struct {
	join relation.Schema // K_b ⋈ U: what u₁ compiles against
	eval relation.Schema // (t, bid, sid, lrel, rule): what u₂ compiles against
	out  relation.Schema // (t, sid, v, bid)
}

func interpretSchemas(in relation.Schema, j *JoinSpec) (interpSchemas, error) {
	join, err := joinSchema(in, j)
	if err != nil {
		return interpSchemas{}, err
	}
	if !join.Has(rules.ColU1Rule) {
		return interpSchemas{}, fmt.Errorf("rule column %q missing", rules.ColU1Rule)
	}
	if join.Has(trace.ColLRel) {
		return interpSchemas{}, fmt.Errorf("column %q already exists", trace.ColLRel)
	}
	eval, err := join.Append(relation.Column{Name: trace.ColLRel, Kind: relation.KindBytes}).
		Project(trace.ColT, trace.ColBID, trace.ColSID, trace.ColLRel, rules.ColU2Rule)
	if err != nil {
		return interpSchemas{}, err
	}
	out, err := eval.Append(relation.Column{Name: trace.ColV, Kind: relation.KindNull}).
		Project(trace.ColT, trace.ColSID, trace.ColV, trace.ColBID)
	if err != nil {
		return interpSchemas{}, err
	}
	return interpSchemas{join: join, eval: eval, out: out}, nil
}

// interpTable is OpInterpret's compiled translation table.
type interpTable struct {
	hash     map[uint64]*joinBucket
	entries  []interpEntry // one per table row, in table order
	leftIdx  []int
	rightIdx []int
	tIdx     int
	bidIdx   int
	inWidth  int
}

// interpEntry is one compiled translation tuple.
type interpEntry struct {
	sid, rule relation.Value
	// ext holds the tuple's non-key cells as one-element columns: u₁'s
	// operands at and above inWidth read them, as they would read the
	// join row's right half.
	ext    [][]relation.Value
	u1, u2 *compiledRule // nil for an empty rule text
}

// compiledRule is one rule text compiled once per stage; err is kept
// and returned only when a row reaches the rule.
type compiledRule struct {
	prog *expr.FlatProgram
	err  error
}

func compileInterpret(in relation.Schema, j *JoinSpec) (*interpTable, error) {
	sch, err := interpretSchemas(in, j)
	if err != nil {
		return nil, err
	}
	it := &interpTable{
		leftIdx:  columnIndexes(in, j.LeftKeys),
		rightIdx: columnIndexes(j.Schema, j.RightKeys),
		tIdx:     in.MustIndex(trace.ColT),
		bidIdx:   in.MustIndex(trace.ColBID),
		inWidth:  len(in.Cols),
	}
	it.hash = buildJoinHash(j.Rows, it.rightIdx)
	keep := sch.join.Cols[it.inWidth:]
	sidIdx := j.Schema.MustIndex(trace.ColSID)
	u1Idx := j.Schema.MustIndex(rules.ColU1Rule)
	ruleIdx := j.Schema.MustIndex(rules.ColU2Rule)
	u1Progs := map[string]*compiledRule{}
	u2Progs := map[string]*compiledRule{}
	it.entries = make([]interpEntry, len(j.Rows))
	for i, r := range j.Rows {
		e := &it.entries[i]
		e.sid, e.rule = r[sidIdx], r[ruleIdx]
		for _, c := range keep {
			e.ext = append(e.ext, []relation.Value{r[j.Schema.MustIndex(c.Name)]})
		}
		e.u1 = compileRuleOnce(u1Progs, r[u1Idx].AsString(), sch.join)
		e.u2 = compileRuleOnce(u2Progs, e.rule.AsString(), sch.eval)
	}
	return it, nil
}

func compileRuleOnce(cache map[string]*compiledRule, src string, s relation.Schema) *compiledRule {
	if src == "" {
		return nil
	}
	if c, ok := cache[src]; ok {
		return c
	}
	c := &compiledRule{}
	prog, err := expr.Compile(src, s)
	switch {
	case err != nil:
		c.err = fmt.Errorf("engine: row rule %q: %w", src, err)
	case prog.UsesWindow():
		c.err = fmt.Errorf("engine: row rule %q: window functions are not allowed in interpretation rules", src)
	default:
		c.prog = prog.Flatten()
	}
	cache[src] = c
	return c
}

func columnIndexes(s relation.Schema, names []string) []int {
	idx := make([]int, len(names))
	for k, name := range names {
		idx[k] = s.MustIndex(name)
	}
	return idx
}

// applyInterpretVec is the OpInterpret kernel. Probe keys are hashed a
// batch at a time like the broadcast join's; output rows are 4 cells
// wide and slab-allocated.
func (st *compiledOp) applyInterpretVec(rows []relation.Row, sc *vecScratch) ([]relation.Row, error) {
	it := st.interp
	out := make([]relation.Row, 0, len(rows))
	sl := slab{w: 4}
	// scratch is u₂'s input row (t, bid, sid, lrel, rule).
	scratch := make(relation.Row, 5)
	evalRows := []relation.Row{scratch}
	if cap(sc.hashes) < batchSize {
		sc.hashes = make([]uint64, batchSize)
	}
	for lo := 0; lo < len(rows); lo += batchSize {
		hi := min(lo+batchSize, len(rows))
		hs := sc.hashes[:hi-lo]
		for i := lo; i < hi; i++ {
			hs[i-lo] = rows[i].Hash(it.leftIdx...)
		}
		vectorizedBatchesCtr.Inc()
		for i := lo; i < hi; i++ {
			b := it.hash[hs[i-lo]]
			if b == nil {
				continue
			}
			r := rows[i]
			for k, cand := range b.rows {
				// A uniform bucket shares one key tuple: checking its
				// first row decides them all.
				if (k == 0 || !b.uniform) && !keysEqual(r, cand, it.leftIdx, it.rightIdx) {
					if b.uniform {
						break
					}
					continue
				}
				e := &it.entries[b.pos[k]]
				var lrel, v relation.Value
				if e.u1 != nil {
					if e.u1.err != nil {
						return nil, e.u1.err
					}
					lrel = sc.machine.EvalColsAt(e.u1.prog, rows, i, it.inWidth, e.ext, i)
				}
				if e.u2 != nil {
					if e.u2.err != nil {
						return nil, e.u2.err
					}
					scratch[0], scratch[1], scratch[2], scratch[3], scratch[4] = r[it.tIdx], r[it.bidIdx], e.sid, lrel, e.rule
					v = sc.machine.EvalAt(e.u2.prog, evalRows, 0)
				}
				nr := sl.next()
				nr[0], nr[1], nr[2], nr[3] = r[it.tIdx], e.sid, v, r[it.bidIdx]
				out = append(out, nr)
			}
		}
	}
	return out, nil
}

// Package oracle is the reference implementation of the engine's
// operator algebra for differential testing (internal/difftest). Every
// operator is re-implemented in the most naive way that is still
// semantically exact: single-threaded, row at a time, nested-loop
// joins, no caches, no codecs, no wire. The package deliberately shares
// only internal/expr (the expression language is the contract both
// sides evaluate) and internal/relation (the data model) with the real
// engine — none of the pipeline compiler, pipeline/rule caches,
// executors or cluster machinery — so a silent wrong-answer bug in any
// of those layers shows up as a diff against this oracle rather than
// being replicated on both sides.
//
// Semantics intentionally mirrored from the engine, operator by
// operator:
//
//   - window functions (lag/gap/delta) see the rows as they entered the
//     current operator, partition-local;
//   - OpInterpret is its relational plan (join, u₁, π, u₂, π); an
//     empty rule string yields null, and a rule that fails to compile
//     or uses a window function is a stage-fatal error once a row
//     reaches it;
//   - OpBroadcastJoin emits, per stream row, the matching table rows in
//     table order, with right key columns dropped;
//   - OpDedupConsecutive compares each row to its immediate input
//     predecessor on the value columns;
//   - OpSortWithin is a stable per-partition sort;
//   - OpPartialAgg groups rows of one partition and orders output by
//     the NUL-joined string rendering of the group key.
package oracle

import (
	"fmt"
	"sort"

	"ivnt/internal/engine"
	"ivnt/internal/expr"
	"ivnt/internal/relation"
	"ivnt/internal/rules"
	"ivnt/internal/trace"
)

// coveredKinds is the number of operator kinds ApplyOp implements. The
// two zero-length array declarations below pin it to engine.NumOpKinds
// in both directions: adding an OpKind to the engine without teaching
// the oracle about it makes one of the array lengths negative, which
// fails to compile. Update coveredKinds only together with a new case
// in ApplyOp (and generator coverage in internal/difftest).
const coveredKinds = 9

var _ [engine.NumOpKinds - coveredKinds]struct{} // engine has a kind the oracle lacks
var _ [coveredKinds - engine.NumOpKinds]struct{} // oracle claims a kind the engine lacks

// RunStage applies ops to every partition of rel independently — the
// reference for Executor.RunStage: same partition count, same
// partition-local row order.
func RunStage(rel *relation.Relation, ops []engine.OpDesc) (*relation.Relation, error) {
	outSchema, err := engine.OutputSchema(rel.Schema, ops)
	if err != nil {
		return nil, err
	}
	out := &relation.Relation{Schema: outSchema, Partitions: make([][]relation.Row, len(rel.Partitions))}
	for pi, part := range rel.Partitions {
		_, rows, err := RunPipeline(rel.Schema, part, ops)
		if err != nil {
			return nil, fmt.Errorf("oracle: partition %d: %w", pi, err)
		}
		out.Partitions[pi] = rows
	}
	return out, nil
}

// RunPipeline applies ops to one unpartitioned row slice, operator by
// operator — the end-to-end pipeline oracle.
func RunPipeline(s relation.Schema, rows []relation.Row, ops []engine.OpDesc) (relation.Schema, []relation.Row, error) {
	cur := s
	for i, op := range ops {
		var err error
		cur, rows, err = ApplyOp(cur, rows, op)
		if err != nil {
			return relation.Schema{}, nil, fmt.Errorf("oracle: op %d (%s): %w", i, op.Kind, err)
		}
	}
	return cur, rows, nil
}

// ApplyOp applies one operator to one partition's rows and returns the
// output schema and rows. The input slice is never mutated.
func ApplyOp(in relation.Schema, rows []relation.Row, op engine.OpDesc) (relation.Schema, []relation.Row, error) {
	switch op.Kind {
	case engine.OpFilter:
		return applyFilter(in, rows, op)
	case engine.OpProject:
		return applyProject(in, rows, op)
	case engine.OpAddColumn:
		return applyAddColumn(in, rows, op)
	case engine.OpInterpret:
		return applyInterpret(in, rows, op)
	case engine.OpBroadcastJoin:
		return applyBroadcastJoin(in, rows, op)
	case engine.OpDedupConsecutive:
		return applyDedupConsecutive(in, rows, op)
	case engine.OpSortWithin:
		return applySortWithin(in, rows, op)
	case engine.OpPartialAgg:
		return applyPartialAgg(in, rows, op)
	case engine.OpShuffleExchange:
		return applyShuffleExchange(in, rows, op)
	default:
		return relation.Schema{}, nil, fmt.Errorf("no reference implementation for op kind %v", op.Kind)
	}
}

func applyFilter(in relation.Schema, rows []relation.Row, op engine.OpDesc) (relation.Schema, []relation.Row, error) {
	prog, err := expr.Compile(op.Expr, in)
	if err != nil {
		return relation.Schema{}, nil, err
	}
	var out []relation.Row
	env := &expr.RowEnv{Rows: rows}
	for i := range rows {
		env.Idx = i
		if prog.EvalBool(env) {
			out = append(out, rows[i])
		}
	}
	return in, out, nil
}

func applyProject(in relation.Schema, rows []relation.Row, op engine.OpDesc) (relation.Schema, []relation.Row, error) {
	outSchema, err := in.Project(op.Cols...)
	if err != nil {
		return relation.Schema{}, nil, err
	}
	out := make([]relation.Row, len(rows))
	for i, r := range rows {
		nr := make(relation.Row, 0, len(op.Cols))
		for _, name := range op.Cols {
			nr = append(nr, r[in.MustIndex(name)])
		}
		out[i] = nr
	}
	return outSchema, out, nil
}

func applyAddColumn(in relation.Schema, rows []relation.Row, op engine.OpDesc) (relation.Schema, []relation.Row, error) {
	if in.Has(op.Col) {
		return relation.Schema{}, nil, fmt.Errorf("column %q already exists", op.Col)
	}
	prog, err := expr.Compile(op.Expr, in)
	if err != nil {
		return relation.Schema{}, nil, err
	}
	out := make([]relation.Row, len(rows))
	env := &expr.RowEnv{Rows: rows}
	for i, r := range rows {
		env.Idx = i
		nr := append(r.Clone(), prog.Eval(env))
		out[i] = nr
	}
	return in.Append(relation.Column{Name: op.Col, Kind: op.ColKind}), out, nil
}

// applyInterpret is OpInterpret's specification run as the relational
// plan it stands for: the nested-loop join with the translation table,
// u₁ per join row, π (t, bid, sid, lrel, rule), u₂ per projected row,
// π (t, sid, v, bid).
func applyInterpret(in relation.Schema, rows []relation.Row, op engine.OpDesc) (relation.Schema, []relation.Row, error) {
	outSchema, err := engine.OutputSchema(in, []engine.OpDesc{op})
	if err != nil {
		return relation.Schema{}, nil, err
	}
	join := op
	join.Kind = engine.OpBroadcastJoin
	s, rows, err := applyBroadcastJoin(in, rows, join)
	if err != nil {
		return relation.Schema{}, nil, err
	}
	if s, rows, err = applyRule(s, rows, trace.ColLRel, relation.KindBytes, rules.ColU1Rule); err != nil {
		return relation.Schema{}, nil, err
	}
	if s, rows, err = applyProject(s, rows, engine.Project(trace.ColT, trace.ColBID, trace.ColSID, trace.ColLRel, rules.ColU2Rule)); err != nil {
		return relation.Schema{}, nil, err
	}
	if s, rows, err = applyRule(s, rows, trace.ColV, relation.KindNull, rules.ColU2Rule); err != nil {
		return relation.Schema{}, nil, err
	}
	if _, rows, err = applyProject(s, rows, engine.Project(trace.ColT, trace.ColSID, trace.ColV, trace.ColBID)); err != nil {
		return relation.Schema{}, nil, err
	}
	return outSchema, rows, nil
}

// applyRule appends column col evaluated, per row, from the rule text
// in column ruleCol.
func applyRule(in relation.Schema, rows []relation.Row, col string, kind relation.Kind, ruleCol string) (relation.Schema, []relation.Row, error) {
	ruleIdx := in.MustIndex(ruleCol)
	out := make([]relation.Row, len(rows))
	for i, r := range rows {
		var v relation.Value
		// Recompile the rule for every single row: maximally naive, and
		// immune by construction to stale-cache bugs.
		if src := r[ruleIdx].AsString(); src != "" {
			prog, err := expr.Compile(src, in)
			if err != nil {
				return relation.Schema{}, nil, fmt.Errorf("row rule %q: %w", src, err)
			}
			if prog.UsesWindow() {
				return relation.Schema{}, nil, fmt.Errorf("row rule %q: window function", src)
			}
			v = prog.Eval(&expr.RowEnv{Rows: rows, Idx: i})
		}
		out[i] = append(r.Clone(), v)
	}
	return in.Append(relation.Column{Name: col, Kind: kind}), out, nil
}

func applyBroadcastJoin(in relation.Schema, rows []relation.Row, op engine.OpDesc) (relation.Schema, []relation.Row, error) {
	j := op.Join
	if j == nil {
		return relation.Schema{}, nil, fmt.Errorf("nil join spec")
	}
	outSchema, err := engine.OutputSchema(in, []engine.OpDesc{op})
	if err != nil {
		return relation.Schema{}, nil, err
	}
	leftIdx := make([]int, len(j.LeftKeys))
	for k, name := range j.LeftKeys {
		leftIdx[k] = in.MustIndex(name)
	}
	rightIdx := make([]int, len(j.RightKeys))
	rightKeySet := map[string]bool{}
	for k, name := range j.RightKeys {
		rightIdx[k] = j.Schema.MustIndex(name)
		rightKeySet[name] = true
	}
	var keepIdx []int
	for ci, c := range j.Schema.Cols {
		if !rightKeySet[c.Name] {
			keepIdx = append(keepIdx, ci)
		}
	}
	var out []relation.Row
	for _, r := range rows {
		// Nested-loop scan of the whole broadcast table, in table order.
		for _, cand := range j.Rows {
			match := true
			for k := range leftIdx {
				if !r[leftIdx[k]].Equal(cand[rightIdx[k]]) {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			nr := make(relation.Row, 0, len(r)+len(keepIdx))
			nr = append(nr, r...)
			for _, ci := range keepIdx {
				nr = append(nr, cand[ci])
			}
			out = append(out, nr)
		}
	}
	return outSchema, out, nil
}

func applyDedupConsecutive(in relation.Schema, rows []relation.Row, op engine.OpDesc) (relation.Schema, []relation.Row, error) {
	idx := make([]int, len(op.Cols))
	for k, name := range op.Cols {
		i := in.Index(name)
		if i < 0 {
			return relation.Schema{}, nil, fmt.Errorf("column %q missing", name)
		}
		idx[k] = i
	}
	var out []relation.Row
	for i, r := range rows {
		if i > 0 {
			same := true
			for _, ci := range idx {
				if !r[ci].Equal(rows[i-1][ci]) {
					same = false
					break
				}
			}
			if same {
				continue
			}
		}
		out = append(out, r)
	}
	return in, out, nil
}

func applySortWithin(in relation.Schema, rows []relation.Row, op engine.OpDesc) (relation.Schema, []relation.Row, error) {
	idx := make([]int, len(op.Cols))
	for k, name := range op.Cols {
		i := in.Index(name)
		if i < 0 {
			return relation.Schema{}, nil, fmt.Errorf("column %q missing", name)
		}
		idx[k] = i
	}
	out := make([]relation.Row, len(rows))
	copy(out, rows)
	// Insertion sort: trivially stable and trivially correct.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			less := false
			for _, ci := range idx {
				if c := out[j][ci].Compare(out[j-1][ci]); c != 0 {
					less = c < 0
					break
				}
			}
			if !less {
				break
			}
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return in, out, nil
}

// applyShuffleExchange reorders one partition's rows into contiguous
// runs of ascending key-hash bucket, keeping input order within each
// bucket: one full pass over the input per bucket, O(parts × rows) —
// maximally naive, no per-bucket buffers. Bucket assignment uses
// relation.Row.Bucket directly (the data-model contract shared with
// the engine, like expr), so null keys land in the same single bucket
// on both sides.
func applyShuffleExchange(in relation.Schema, rows []relation.Row, op engine.OpDesc) (relation.Schema, []relation.Row, error) {
	if op.Parts < 1 {
		return relation.Schema{}, nil, fmt.Errorf("shuffle fan-out %d < 1", op.Parts)
	}
	idx := make([]int, len(op.Cols))
	for k, name := range op.Cols {
		i := in.Index(name)
		if i < 0 {
			return relation.Schema{}, nil, fmt.Errorf("shuffle key %q missing", name)
		}
		idx[k] = i
	}
	out := make([]relation.Row, 0, len(rows))
	for b := 0; b < op.Parts; b++ {
		for _, r := range rows {
			if r.Bucket(op.Parts, idx...) == b {
				out = append(out, r)
			}
		}
	}
	return in, out, nil
}

// applyPartialAgg computes the map-side partial aggregates of one
// partition: group columns followed by per-aggregate partial columns
// (mean expands into "<as>__sum" and "<as>__n"), rows ordered by the
// NUL-joined string form of the group key.
func applyPartialAgg(in relation.Schema, rows []relation.Row, op engine.OpDesc) (relation.Schema, []relation.Row, error) {
	outSchema, err := engine.OutputSchema(in, []engine.OpDesc{op})
	if err != nil {
		return relation.Schema{}, nil, err
	}
	keyIdx := make([]int, len(op.GroupBy))
	for i, g := range op.GroupBy {
		keyIdx[i] = in.MustIndex(g)
	}
	groups, order := groupRows(rows, keyIdx)
	out := make([]relation.Row, 0, len(order))
	for _, k := range order {
		g := groups[k]
		row := make(relation.Row, 0, outSchema.Len())
		row = append(row, g.key...)
		for _, a := range op.Aggs {
			ci := -1
			if a.Fn != engine.AggCount {
				ci = in.MustIndex(a.Col)
			}
			switch a.Fn {
			case engine.AggCount:
				row = append(row, relation.Int(int64(len(g.rows))))
			case engine.AggSum:
				row = append(row, relation.Float(sumOf(g.rows, ci)))
			case engine.AggMin:
				row = append(row, minMaxOf(g.rows, ci, true))
			case engine.AggMax:
				row = append(row, minMaxOf(g.rows, ci, false))
			case engine.AggMean:
				row = append(row,
					relation.Float(sumOf(g.rows, ci)),
					relation.Int(countNonNull(g.rows, ci)))
			default:
				return relation.Schema{}, nil, fmt.Errorf("aggregate %s not distributable", a.Fn)
			}
		}
		out = append(out, row)
	}
	return outSchema, out, nil
}

// FinalAggregate is the reference for a full distributed group-by
// (partial aggregation + driver-side merge): a sequential aggregation
// over unpartitioned rows producing final values, ordered by group key.
// It mirrors engine.Aggregate's observable semantics without sharing
// its accumulator machinery.
func FinalAggregate(in relation.Schema, rows []relation.Row, groupBy []string, aggs []engine.AggSpec) (*relation.Relation, error) {
	keyIdx := make([]int, len(groupBy))
	cols := make([]relation.Column, 0, len(groupBy)+len(aggs))
	for i, g := range groupBy {
		j := in.Index(g)
		if j < 0 {
			return nil, fmt.Errorf("oracle: no group column %q", g)
		}
		keyIdx[i] = j
		cols = append(cols, in.Cols[j])
	}
	for _, a := range aggs {
		kind := relation.KindFloat
		if a.Fn == engine.AggCount {
			kind = relation.KindInt
		}
		cols = append(cols, relation.Column{Name: a.As, Kind: kind})
	}
	groups, order := groupRows(rows, keyIdx)
	out := relation.New(relation.NewSchema(cols...))
	for _, k := range order {
		g := groups[k]
		row := make(relation.Row, 0, len(cols))
		row = append(row, g.key...)
		for _, a := range aggs {
			ci := -1
			if a.Fn != engine.AggCount {
				j := in.Index(a.Col)
				if j < 0 {
					return nil, fmt.Errorf("oracle: no column %q for %s", a.Col, a.Fn)
				}
				ci = j
			}
			switch a.Fn {
			case engine.AggCount:
				row = append(row, relation.Int(int64(len(g.rows))))
			case engine.AggSum:
				row = append(row, relation.Float(sumOf(g.rows, ci)))
			case engine.AggMin:
				row = append(row, minMaxOf(g.rows, ci, true))
			case engine.AggMax:
				row = append(row, minMaxOf(g.rows, ci, false))
			case engine.AggMean:
				n := countNonNull(g.rows, ci)
				if n == 0 {
					row = append(row, relation.Null())
				} else {
					row = append(row, relation.Float(sumOf(g.rows, ci)/float64(n)))
				}
			default:
				return nil, fmt.Errorf("oracle: aggregate %s not distributable", a.Fn)
			}
		}
		out.Append(row)
	}
	return out, nil
}

// group is the rows of one group-by key plus the first-seen key cells.
type group struct {
	key  relation.Row
	rows []relation.Row
}

// groupRows buckets rows by the string rendering of their key cells and
// returns the buckets plus the sorted key order.
func groupRows(rows []relation.Row, keyIdx []int) (map[string]*group, []string) {
	groups := map[string]*group{}
	var order []string
	for _, r := range rows {
		k := ""
		for _, ki := range keyIdx {
			k += r[ki].AsString() + "\x00"
		}
		g, ok := groups[k]
		if !ok {
			key := make(relation.Row, len(keyIdx))
			for i, ki := range keyIdx {
				key[i] = r[ki]
			}
			g = &group{key: key}
			groups[k] = g
			order = append(order, k)
		}
		g.rows = append(g.rows, r)
	}
	sort.Strings(order)
	return groups, order
}

func sumOf(rows []relation.Row, ci int) float64 {
	var s float64
	for _, r := range rows {
		if !r[ci].IsNull() {
			s += r[ci].AsFloat()
		}
	}
	return s
}

func countNonNull(rows []relation.Row, ci int) int64 {
	var n int64
	for _, r := range rows {
		if !r[ci].IsNull() {
			n++
		}
	}
	return n
}

// minMaxOf returns the first-seen extreme non-null value (strict
// comparison, so ties keep the earliest), or null when every value is
// null.
func minMaxOf(rows []relation.Row, ci int, min bool) relation.Value {
	var best relation.Value
	seen := false
	for _, r := range rows {
		v := r[ci]
		if v.IsNull() {
			continue
		}
		if !seen {
			best, seen = v, true
			continue
		}
		if c := v.Compare(best); (min && c < 0) || (!min && c > 0) {
			best = v
		}
	}
	if !seen {
		return relation.Null()
	}
	return best
}

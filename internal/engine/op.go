// Package engine implements the distributable tabular batch engine the
// framework runs on — the substitute for Apache Spark in the paper's
// evaluation. It provides the relational operator algebra Algorithm 1 is
// written in (σ filter, ⋈ broadcast hash join, F row-wise map, run
// deduplication, projection, per-partition sort) as *serializable
// operator descriptors*, so the same stage pipeline executes on the
// in-process parallel executor or on remote TCP executors
// (internal/cluster) unchanged.
//
// Operators are deliberately data-driven: every parameter is plain data
// (expression source text, rule tables, column names), never a Go
// closure, which is what makes plans shippable across the wire — the
// analogue of the paper's "one-time parameterization" being submitted to
// a Big Data cluster.
package engine

import (
	"fmt"

	"ivnt/internal/expr"
	"ivnt/internal/relation"
	"ivnt/internal/rules"
	"ivnt/internal/trace"
)

// OpKind enumerates the narrow (per-partition) operators.
type OpKind uint8

// Narrow operator kinds. All of them preserve partitioning, which is why
// a stage pipeline of them runs embarrassingly parallel.
const (
	// OpFilter keeps rows whose predicate expression is true (σ).
	OpFilter OpKind = iota
	// OpProject keeps the named columns, in order (π).
	OpProject
	// OpAddColumn appends a computed column (F, row-wise map). The
	// expression may use window functions; history is partition-local.
	OpAddColumn
	// OpInterpret is information extraction (Algorithm 1 lines 3–6) as
	// one operator: each K_b row probes a translation table on (b_id,
	// m_id); a miss drops the row (the line-3 preselection), and every
	// matching tuple, in table order, yields one K_s row (t, sid, v,
	// bid) with l_rel = u₁(l) and v = u₂(l_rel). See interpret.go.
	OpInterpret
	// OpBroadcastJoin inner-joins the stream with a small broadcast
	// table on equal keys (⋈). The table rides along inside the
	// descriptor, exactly like a Spark broadcast variable.
	OpBroadcastJoin
	// OpDedupConsecutive drops a row when all its value columns equal
	// the previous row's (run-length deduplication of cyclically
	// repeated signal instances, Sec. 5.1).
	OpDedupConsecutive
	// OpSortWithin sorts each partition by the given columns.
	OpSortWithin
	// OpPartialAgg computes per-partition partial aggregates (the
	// map-side combine of a distributed group-by); the driver merges
	// the partials. AggFirst/AggLast are order-dependent and therefore
	// not distributable.
	OpPartialAgg
	// OpShuffleExchange is the map side of a hash-partitioned shuffle:
	// it reorders the partition's rows into contiguous runs grouped by
	// ascending hash bucket of the key columns (bucket = Row.Bucket of
	// Cols over Parts), preserving input order within each bucket and
	// leaving the schema unchanged. On the cluster this is where map
	// tasks cut their output into the per-executor partitions they
	// stream to peers; as a narrow operator it stays a deterministic,
	// locally testable kernel (see shuffle.go and docs/SHUFFLE.md).
	OpShuffleExchange

	// NumOpKinds is the number of operator kinds; it must stay
	// immediately after the last kind so iota counts it. The
	// differential-testing oracle (internal/oracle) pins itself to this
	// value with a compile-time assertion: adding a kind here without a
	// reference implementation there fails the build (see
	// docs/TESTING.md).
	NumOpKinds = int(iota)
)

// String returns the operator name.
func (k OpKind) String() string {
	switch k {
	case OpFilter:
		return "filter"
	case OpProject:
		return "project"
	case OpAddColumn:
		return "addcolumn"
	case OpInterpret:
		return "interpret"
	case OpBroadcastJoin:
		return "broadcastjoin"
	case OpDedupConsecutive:
		return "dedupconsecutive"
	case OpSortWithin:
		return "sortwithin"
	case OpPartialAgg:
		return "partialagg"
	case OpShuffleExchange:
		return "shuffleexchange"
	default:
		return fmt.Sprintf("op(%d)", uint8(k))
	}
}

// JoinSpec carries a small broadcast table and the equi-join keys.
type JoinSpec struct {
	Schema    relation.Schema
	Rows      []relation.Row
	LeftKeys  []string
	RightKeys []string
	// TableHash is the content fingerprint of (Schema, Rows), set by
	// the cluster driver when it ships the stage with the table rows
	// stripped (protocol v3 sends each broadcast table once per
	// connection, keyed by this hash). The engine itself never reads
	// it; Rows must be materialized before NewStagePipeline runs.
	TableHash uint64
}

// OpDesc is one serializable operator. Only the fields relevant to Kind
// are set; the flat shape keeps gob encoding trivial.
type OpDesc struct {
	Kind OpKind

	// Expr is the predicate (OpFilter) or column expression
	// (OpAddColumn).
	Expr string
	// Col is the output column name (OpAddColumn).
	Col string
	// ColKind is the advisory kind of the output column.
	ColKind relation.Kind
	// Cols are the projection columns (OpProject), the sort keys
	// (OpSortWithin) or the compared value columns (OpDedupConsecutive).
	Cols []string
	// Join is the broadcast join spec (OpBroadcastJoin) or the
	// translation table (OpInterpret).
	Join *JoinSpec
	// GroupBy and Aggs parameterize OpPartialAgg.
	GroupBy []string
	Aggs    []AggSpec
	// Parts is the shuffle fan-out (OpShuffleExchange): rows are hashed
	// on Cols into this many output partitions.
	Parts int
}

// Filter builds a σ descriptor.
func Filter(predicate string) OpDesc { return OpDesc{Kind: OpFilter, Expr: predicate} }

// Project builds a π descriptor.
func Project(cols ...string) OpDesc { return OpDesc{Kind: OpProject, Cols: cols} }

// AddColumn builds a computed-column descriptor.
func AddColumn(name string, kind relation.Kind, exprSrc string) OpDesc {
	return OpDesc{Kind: OpAddColumn, Col: name, ColKind: kind, Expr: exprSrc}
}

// Interpret builds the interpretation descriptor for translation
// tuples ts. The table is rules.ToRelation(ts), probed on K_b's (bid,
// mid); it rides in Join so fingerprinting and once-per-connection
// table shipping treat it like any broadcast table.
func Interpret(ts []rules.Translation) OpDesc {
	tbl := rules.ToRelation(ts)
	return OpDesc{Kind: OpInterpret, Join: &JoinSpec{
		Schema:    tbl.Schema,
		Rows:      tbl.Rows(),
		LeftKeys:  []string{trace.ColBID, trace.ColMID},
		RightKeys: []string{rules.ColUBID, rules.ColUMID},
	}}
}

// BroadcastJoin builds an inner equi-join with a small table. Key
// columns of the right side are not duplicated in the output schema.
func BroadcastJoin(small *relation.Relation, leftKeys, rightKeys []string) OpDesc {
	return OpDesc{Kind: OpBroadcastJoin, Join: &JoinSpec{
		Schema:    small.Schema,
		Rows:      small.Rows(),
		LeftKeys:  leftKeys,
		RightKeys: rightKeys,
	}}
}

// DedupConsecutive builds a run-deduplication descriptor over the given
// value columns.
func DedupConsecutive(valueCols ...string) OpDesc {
	return OpDesc{Kind: OpDedupConsecutive, Cols: valueCols}
}

// SortWithin builds a per-partition sort descriptor.
func SortWithin(cols ...string) OpDesc { return OpDesc{Kind: OpSortWithin, Cols: cols} }

// PartialAgg builds a map-side partial aggregation descriptor.
func PartialAgg(groupBy []string, aggs []AggSpec) OpDesc {
	return OpDesc{Kind: OpPartialAgg, GroupBy: groupBy, Aggs: aggs}
}

// ShuffleExchange builds a hash-repartition descriptor: rows are
// grouped into parts contiguous bucket runs by the hash of the key
// columns. Null keys hash deterministically into one bucket
// (relation.Row.Bucket is the single bucket authority).
func ShuffleExchange(parts int, keys ...string) OpDesc {
	return OpDesc{Kind: OpShuffleExchange, Parts: parts, Cols: keys}
}

// OutputSchema computes the schema produced by applying ops to a schema,
// validating column references and compiling every expression once.
func OutputSchema(in relation.Schema, ops []OpDesc) (relation.Schema, error) {
	s := in
	for i, op := range ops {
		var err error
		s, err = opSchema(s, op)
		if err != nil {
			return relation.Schema{}, fmt.Errorf("engine: op %d (%s): %w", i, op.Kind, err)
		}
	}
	return s, nil
}

func opSchema(in relation.Schema, op OpDesc) (relation.Schema, error) {
	switch op.Kind {
	case OpFilter:
		if _, err := expr.Compile(op.Expr, in); err != nil {
			return relation.Schema{}, err
		}
		return in, nil
	case OpProject:
		return in.Project(op.Cols...)
	case OpAddColumn:
		if in.Has(op.Col) {
			return relation.Schema{}, fmt.Errorf("column %q already exists", op.Col)
		}
		if _, err := expr.Compile(op.Expr, in); err != nil {
			return relation.Schema{}, err
		}
		return in.Append(relation.Column{Name: op.Col, Kind: op.ColKind}), nil
	case OpInterpret:
		sch, err := interpretSchemas(in, op.Join)
		if err != nil {
			return relation.Schema{}, err
		}
		return sch.out, nil
	case OpBroadcastJoin:
		return joinSchema(in, op.Join)
	case OpDedupConsecutive, OpSortWithin:
		for _, c := range op.Cols {
			if !in.Has(c) {
				return relation.Schema{}, fmt.Errorf("column %q missing", c)
			}
		}
		return in, nil
	case OpPartialAgg:
		return partialAggSchema(in, op.GroupBy, op.Aggs)
	case OpShuffleExchange:
		if op.Parts < 1 {
			return relation.Schema{}, fmt.Errorf("shuffle fan-out %d < 1", op.Parts)
		}
		if len(op.Cols) == 0 {
			return relation.Schema{}, fmt.Errorf("shuffle exchange needs key columns")
		}
		for _, c := range op.Cols {
			if !in.Has(c) {
				return relation.Schema{}, fmt.Errorf("shuffle key %q missing", c)
			}
		}
		return in, nil
	default:
		return relation.Schema{}, fmt.Errorf("unknown op kind %v", op.Kind)
	}
}

// joinSchema is OpBroadcastJoin's output schema: the stream columns
// followed by the table's non-key columns.
func joinSchema(in relation.Schema, j *JoinSpec) (relation.Schema, error) {
	if j == nil {
		return relation.Schema{}, fmt.Errorf("nil join spec")
	}
	if len(j.LeftKeys) == 0 || len(j.LeftKeys) != len(j.RightKeys) {
		return relation.Schema{}, fmt.Errorf("join keys mismatch: %v vs %v", j.LeftKeys, j.RightKeys)
	}
	for _, k := range j.LeftKeys {
		if !in.Has(k) {
			return relation.Schema{}, fmt.Errorf("left key %q missing", k)
		}
	}
	rightKeySet := map[string]bool{}
	for _, k := range j.RightKeys {
		if !j.Schema.Has(k) {
			return relation.Schema{}, fmt.Errorf("right key %q missing", k)
		}
		rightKeySet[k] = true
	}
	out := in
	for _, c := range j.Schema.Cols {
		if rightKeySet[c.Name] {
			continue
		}
		if out.Has(c.Name) {
			return relation.Schema{}, fmt.Errorf("join output column %q collides", c.Name)
		}
		out = out.Append(c)
	}
	return out, nil
}

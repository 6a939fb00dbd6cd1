package engine

import (
	"context"
	"fmt"

	"ivnt/internal/relation"
	"ivnt/internal/rules"
)

// Dataset is the lazy, fluent plan-building API over the engine, the
// analogue of a Spark DataFrame. Narrow operators accumulate into a
// pending stage; structural operations (shuffle, global sort, union,
// split) force the pending stage through the bound executor.
//
// Builder methods record the first error and make all later calls
// no-ops, so call sites read as straight-line pipelines with a single
// error check at the terminal operation.
type Dataset struct {
	exec  Executor
	rel   *relation.Relation
	ops   []OpDesc
	stats Stats
	err   error
}

// NewDataset wraps a materialized relation with an executor.
func NewDataset(exec Executor, rel *relation.Relation) *Dataset {
	return &Dataset{exec: exec, rel: rel}
}

// Err returns the first error recorded by builder methods.
func (d *Dataset) Err() error { return d.err }

// Stats returns the accumulated execution statistics of all stages this
// dataset has run so far.
func (d *Dataset) Stats() Stats { return d.stats }

// Schema returns the schema the dataset will produce, accounting for
// pending operators.
func (d *Dataset) Schema() (relation.Schema, error) {
	if d.err != nil {
		return relation.Schema{}, d.err
	}
	return OutputSchema(d.rel.Schema, d.ops)
}

func (d *Dataset) push(op OpDesc) *Dataset {
	if d.err != nil {
		return d
	}
	// Validate eagerly so mistakes surface at the call site.
	if _, err := OutputSchema(d.rel.Schema, append(append([]OpDesc{}, d.ops...), op)); err != nil {
		return &Dataset{exec: d.exec, rel: d.rel, ops: d.ops, stats: d.stats, err: err}
	}
	ops := make([]OpDesc, 0, len(d.ops)+1)
	ops = append(ops, d.ops...)
	ops = append(ops, op)
	return &Dataset{exec: d.exec, rel: d.rel, ops: ops, stats: d.stats}
}

// Filter appends σ(predicate).
func (d *Dataset) Filter(predicate string) *Dataset { return d.push(Filter(predicate)) }

// Select appends π(cols).
func (d *Dataset) Select(cols ...string) *Dataset { return d.push(Project(cols...)) }

// WithColumn appends a computed column.
func (d *Dataset) WithColumn(name string, kind relation.Kind, exprSrc string) *Dataset {
	return d.push(AddColumn(name, kind, exprSrc))
}

// Interpret appends the interpretation of K_b into K_s under
// translation tuples ts (OpInterpret).
func (d *Dataset) Interpret(ts []rules.Translation) *Dataset { return d.push(Interpret(ts)) }

// JoinBroadcast appends an inner equi-join with a small table.
func (d *Dataset) JoinBroadcast(small *relation.Relation, leftKeys, rightKeys []string) *Dataset {
	return d.push(BroadcastJoin(small, leftKeys, rightKeys))
}

// DedupRuns appends run-length deduplication on the value columns.
func (d *Dataset) DedupRuns(valueCols ...string) *Dataset {
	return d.push(DedupConsecutive(valueCols...))
}

// SortWithinPartitions appends a per-partition sort.
func (d *Dataset) SortWithinPartitions(cols ...string) *Dataset {
	return d.push(SortWithin(cols...))
}

// Collect runs the pending stage and returns the materialized relation.
func (d *Dataset) Collect(ctx context.Context) (*relation.Relation, error) {
	m, err := d.materialize(ctx)
	if err != nil {
		return nil, err
	}
	return m.rel, nil
}

// Count runs the pending stage and returns the row count.
func (d *Dataset) Count(ctx context.Context) (int, error) {
	rel, err := d.Collect(ctx)
	if err != nil {
		return 0, err
	}
	return rel.NumRows(), nil
}

// materialize flushes pending narrow ops through the executor.
func (d *Dataset) materialize(ctx context.Context) (*Dataset, error) {
	if d.err != nil {
		return nil, d.err
	}
	if len(d.ops) == 0 {
		return d, nil
	}
	out, st, err := d.exec.RunStage(ctx, d.rel, d.ops)
	if err != nil {
		return nil, err
	}
	nd := &Dataset{exec: d.exec, rel: out, stats: d.stats}
	nd.stats.Add(st)
	return nd, nil
}

// Repartition materializes and redistributes into n balanced partitions.
func (d *Dataset) Repartition(ctx context.Context, n int) (*Dataset, error) {
	m, err := d.materialize(ctx)
	if err != nil {
		return nil, err
	}
	return &Dataset{exec: d.exec, rel: m.rel.Repartition(n), stats: m.stats}, nil
}

// Shuffle materializes and hash-partitions by key columns so equal keys
// co-locate — the exchange before per-signal processing.
func (d *Dataset) Shuffle(ctx context.Context, n int, keys ...string) (*Dataset, error) {
	m, err := d.materialize(ctx)
	if err != nil {
		return nil, err
	}
	rel, err := m.rel.PartitionByKey(n, keys...)
	if err != nil {
		return nil, err
	}
	return &Dataset{exec: d.exec, rel: rel, stats: m.stats}, nil
}

// SortGlobal materializes and totally orders the dataset by cols,
// restoring determinism after shuffles. The sort is governed: it
// degrades to an external merge sort when the memory budget denies the
// in-memory working set.
func (d *Dataset) SortGlobal(ctx context.Context, cols ...string) (*Dataset, error) {
	m, err := d.materialize(ctx)
	if err != nil {
		return nil, err
	}
	rel, err := SortRelation(m.rel, cols...)
	if err != nil {
		return nil, err
	}
	return &Dataset{exec: d.exec, rel: rel, stats: m.stats}, nil
}

// Union materializes both sides and concatenates them (schemas must
// match).
func (d *Dataset) Union(ctx context.Context, o *Dataset) (*Dataset, error) {
	m, err := d.materialize(ctx)
	if err != nil {
		return nil, err
	}
	om, err := o.materialize(ctx)
	if err != nil {
		return nil, err
	}
	rel, err := m.rel.Concat(om.rel)
	if err != nil {
		return nil, err
	}
	st := m.stats
	st.Add(om.stats)
	return &Dataset{exec: d.exec, rel: rel, stats: st}, nil
}

// KeyedRelation is one group produced by SplitBy: all rows sharing a
// key, time-ordered if the input was.
type KeyedRelation struct {
	Key relation.Value
	Rel *relation.Relation
}

// SplitBy materializes and splits the dataset into one relation per
// distinct value of col, in first-appearance order — Algorithm 1 line 8
// (signal splitting over Σ*).
func (d *Dataset) SplitBy(ctx context.Context, col string) ([]KeyedRelation, error) {
	m, err := d.materialize(ctx)
	if err != nil {
		return nil, err
	}
	idx := m.rel.Schema.Index(col)
	if idx < 0 {
		return nil, fmt.Errorf("engine: SplitBy: no column %q in %s", col, m.rel.Schema)
	}
	order := []string{}
	groups := map[string][]relation.Row{}
	keyVals := map[string]relation.Value{}
	for _, p := range m.rel.Partitions {
		for _, r := range p {
			k := r[idx].AsString()
			if _, ok := groups[k]; !ok {
				order = append(order, k)
				keyVals[k] = r[idx]
			}
			groups[k] = append(groups[k], r)
		}
	}
	out := make([]KeyedRelation, 0, len(order))
	for _, k := range order {
		out = append(out, KeyedRelation{
			Key: keyVals[k],
			Rel: relation.FromRows(m.rel.Schema, groups[k]),
		})
	}
	return out, nil
}

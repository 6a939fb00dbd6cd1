package query

import (
	"context"

	"ivnt/internal/engine"
	"ivnt/internal/relation"
)

// Sources resolves relation names to scan sources at run time (the
// serve layer backs this with per-tenant segstore catalogs).
type Sources interface {
	Source(rel string) (engine.ScanSource, error)
}

// Result is one executed plan.
type Result struct {
	Rel *relation.Relation
	// PlanKind is the physical choice DistributedJoin/Aggregate made
	// (PlanBroadcast for plain scans, which never shuffle).
	PlanKind engine.PlanKind
	Stats    engine.Stats
}

// Run executes a compiled plan: scan stages (with fold-pushdown
// pruning) feed the distributed join/aggregate steps, then the global
// sort and limit. An aggregate without a join runs its scan and
// aggregate as one engine.ScanAggregate, which answers segments from
// their footers where it can. cfg tunes the broadcast/shuffle choice;
// the zero value uses the engine defaults. Result.Stats sums every
// step's statistics, except RowsIn: the rows the plan's scans read.
func Run(ctx context.Context, exec engine.Executor, srcs Sources, p *Plan, cfg engine.PlanConfig) (*Result, error) {
	res := &Result{PlanKind: engine.PlanBroadcast}
	src, err := srcs.Source(p.From)
	if err != nil {
		return nil, err
	}
	var cur *relation.Relation
	var st engine.Stats
	if len(p.Aggs) > 0 && p.Join == nil {
		var pk engine.PlanKind
		if cur, pk, st, err = engine.ScanAggregate(ctx, exec, src, p.ScanOps, p.GroupBy, p.Aggs, cfg); err != nil {
			return nil, err
		}
		res.PlanKind = pk
	} else if cur, st, err = engine.ScanStage(ctx, exec, src, p.ScanOps); err != nil {
		return nil, err
	}
	res.Stats.Add(st)
	rowsIn := st.RowsIn

	if p.Join != nil {
		rsrc, err := srcs.Source(p.Join.Rel)
		if err != nil {
			return nil, err
		}
		right, st, err := engine.ScanStage(ctx, exec, rsrc, p.Join.RightOps)
		if err != nil {
			return nil, err
		}
		res.Stats.Add(st)
		rowsIn += st.RowsIn
		var pk engine.PlanKind
		cur, pk, st, err = engine.DistributedJoin(ctx, exec, cur, right, p.Join.LeftKeys, p.Join.RightKeys, cfg)
		if err != nil {
			return nil, err
		}
		res.PlanKind = pk
		res.Stats.Add(st)
		if len(p.PostOps) > 0 {
			cur, st, err = exec.RunStage(ctx, cur, p.PostOps)
			if err != nil {
				return nil, err
			}
			res.Stats.Add(st)
		}
		if len(p.Aggs) > 0 {
			var pk engine.PlanKind
			cur, pk, st, err = engine.DistributedAggregate(ctx, exec, cur, p.GroupBy, p.Aggs, cfg)
			if err != nil {
				return nil, err
			}
			res.PlanKind = pk
			res.Stats.Add(st)
		}
	}

	if len(p.FinalProject) > 0 {
		cur, st, err = exec.RunStage(ctx, cur, []engine.OpDesc{engine.Project(p.FinalProject...)})
		if err != nil {
			return nil, err
		}
		res.Stats.Add(st)
	}

	if len(p.OrderBy) > 0 {
		if cur, err = engine.SortRelation(cur, p.OrderBy...); err != nil {
			return nil, err
		}
	}
	if p.Limit >= 0 {
		cur = limitRelation(cur, p.Limit)
	}
	res.Stats.RowsIn = rowsIn
	res.Rel = cur
	return res, nil
}

// limitRelation keeps the first n rows in partition order, collapsing
// to a single partition (a LIMIT result is small by construction).
func limitRelation(rel *relation.Relation, n int) *relation.Relation {
	rows := make([]relation.Row, 0, n)
	for _, part := range rel.Partitions {
		for _, r := range part {
			if len(rows) == n {
				return relation.FromRows(rel.Schema, rows)
			}
			rows = append(rows, r)
		}
	}
	return relation.FromRows(rel.Schema, rows)
}

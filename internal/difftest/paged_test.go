package difftest

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"

	"ivnt/internal/engine"
	"ivnt/internal/expr"
	"ivnt/internal/oracle"
	"ivnt/internal/query"
	"ivnt/internal/relation"
	"ivnt/internal/segstore"
)

// pagedSegmentRows is the row count every segment of a paged store
// reaches: two and a half pages, so each segment holds several pages
// and a last, shorter one.
const pagedSegmentRows = 2*segstore.PageRows + segstore.PageRows/2

// filterCol returns the column the first Filter of ops reads first ("" if none).
func filterCol(w *Workload, ops []engine.OpDesc) string {
	for _, op := range ops {
		if op.Kind != engine.OpFilter {
			continue
		}
		n, err := expr.Parse(op.Expr)
		if err != nil {
			return ""
		}
		for _, id := range expr.Idents(n) {
			if w.Schema.Has(id) {
				return id
			}
		}
	}
	return ""
}

// pagedSegments cuts the workload's rows into nparts contiguous
// segments, as buildScanStore does, then repeats each segment's rows
// until it spans pagedSegmentRows rows and sorts them (stably) on
// sortCol. Workload rows are small; the repetition makes every segment
// multi-page, and the sort makes the pages' zone maps on the filtered
// column tight, so filters actually prune pages.
func pagedSegments(w *Workload, nparts int, sortCol string) [][]relation.Row {
	n := len(w.Rows)
	if n == 0 {
		return nil
	}
	per := (n + nparts - 1) / nparts
	ci := -1
	if sortCol != "" {
		ci = w.Schema.MustIndex(sortCol)
	}
	var segs [][]relation.Row
	for at := 0; at < n; at += per {
		src := w.Rows[at:min(at+per, n)]
		rows := make([]relation.Row, 0, pagedSegmentRows+len(src))
		for len(rows) < pagedSegmentRows {
			for _, r := range src {
				rows = append(rows, r.Clone())
			}
		}
		if ci >= 0 {
			sort.SliceStable(rows, func(i, j int) bool { return rows[i][ci].Compare(rows[j][ci]) < 0 })
		}
		segs = append(segs, rows)
	}
	return segs
}

// buildPagedStore seals pagedSegments into a fresh store under opts.
func buildPagedStore(dir string, w *Workload, nparts int, sortCol string, opts segstore.Options) (*segstore.Store, error) {
	st, err := segstore.Open(dir, w.Schema, opts)
	if err != nil {
		return nil, err
	}
	for _, rows := range pagedSegments(w, nparts, sortCol) {
		if err := st.AppendSegment(rows); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// pagedRun is one subject of the paged invariants: a stage (or parsed
// statement) run against a store, locally or on the cluster.
type pagedRun func(ctx context.Context, exec engine.Executor, st *segstore.Store) (*relation.Relation, engine.Stats, error)

func stageRun(ops []engine.OpDesc) pagedRun {
	return func(ctx context.Context, exec engine.Executor, st *segstore.Store) (*relation.Relation, engine.Stats, error) {
		return engine.ScanStage(ctx, exec, st, ops)
	}
}

func statementRun(p *query.Plan) pagedRun {
	return func(ctx context.Context, exec engine.Executor, st *segstore.Store) (*relation.Relation, engine.Stats, error) {
		res, err := query.Run(ctx, exec, storeSources{st}, p, engine.PlanConfig{})
		if err != nil {
			return nil, engine.Stats{}, err
		}
		return res.Rel, res.Stats, nil
	}
}

// checkPaged holds the page index to the oracle: for P ∈ {1, 2, 7} it
// seals the workload as P multi-page segments (pagedSegments, sorted on
// ops' filter column, under opts; compacted first when compact is set),
// and requires every subject, run in-process and on the TCP cluster
// (where executors read only the selected pages themselves), to equal
// oracle(full scan + ops) bitwise. It returns the mismatch reports and
// the pages page zone maps pruned.
func (e *Env) checkPaged(ctx context.Context, w *Workload, dir, family string, ops []engine.OpDesc, opts segstore.Options, compact bool, subjects map[string]pagedRun) (fails []string, pruned int) {
	fail := func(invariant, detail string) {
		fails = append(fails, Report(w, family+"-paged-"+invariant, detail))
	}
	sortCol := filterCol(w, ops)
	for _, p := range []int{1, 2, 7} {
		st, err := buildPagedStore(filepath.Join(dir, fmt.Sprintf("%s-paged-p%d", family, p)), w, p, sortCol, opts)
		if err != nil {
			fail(fmt.Sprintf("store p=%d", p), err.Error())
			continue
		}
		if compact {
			if _, err := st.Compact(segstore.CompactOptions{}); err != nil {
				fail(fmt.Sprintf("compact p=%d", p), err.Error())
				continue
			}
		}
		full, err := st.Scan(ctx, engine.Pushdown{})
		if err != nil {
			fail(fmt.Sprintf("full p=%d", p), err.Error())
			continue
		}
		ref, err := oracle.RunStage(full, ops)
		if err != nil {
			fail(fmt.Sprintf("oracle p=%d", p), err.Error())
			continue
		}
		for name, run := range subjects {
			for _, exec := range []engine.Executor{e.Local, e.driver()} {
				got, stats, err := run(ctx, exec, st)
				where := fmt.Sprintf("%s-%s p=%d", name, exec.Name(), p)
				if err != nil {
					fail(where, err.Error())
				} else if d := DiffExact(ref, got); d != "" {
					fail(where, d)
				}
				pruned += stats.PagesPruned
			}
		}
	}
	return fails, pruned
}

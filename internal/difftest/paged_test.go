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

// checkPaged holds the page index and the store's segment cache to the
// oracle: for P ∈ {1, 2, 7} it seals the workload as P multi-page
// segments (pagedSegments, sorted on ops' filter column, under opts),
// and requires every subject, run in-process and on the TCP cluster
// (where executors read only the selected pages themselves), to equal
// oracle(segment files + ops) bitwise — twice through the same Store,
// cold and then warm, so the second pass reads the footers and
// dictionaries the first one cached. The oracle's input is read from
// the files directly (segstore.ReadSegmentRows), not through the cache.
// When compact is set, a first pass caches the segments before they are
// compacted, and no later pass may read them back from the cache. After
// the passes the cache may hold entries only for segments the manifest
// names. It returns the mismatch reports and the pages page zone maps
// pruned.
func (e *Env) checkPaged(ctx context.Context, w *Workload, dir, family string, ops []engine.OpDesc, opts segstore.Options, compact bool, subjects map[string]pagedRun) (fails []string, pruned int) {
	fail := func(invariant, detail string) {
		fails = append(fails, Report(w, family+"-paged-"+invariant, detail))
	}
	// pass runs every subject on both executors against ref.
	pass := func(st *segstore.Store, ref *relation.Relation, stage string, p int) {
		for name, run := range subjects {
			for _, exec := range []engine.Executor{e.Local, e.driver()} {
				got, stats, err := run(ctx, exec, st)
				where := fmt.Sprintf("%s-%s-%s p=%d", name, exec.Name(), stage, p)
				if err != nil {
					fail(where, err.Error())
				} else if d := DiffExact(ref, got); d != "" {
					fail(where, d)
				}
				pruned += stats.PagesPruned
			}
		}
	}
	// oracleOf is oracle(segment files + ops) for st as it stands.
	oracleOf := func(st *segstore.Store, stage string, p int) (*relation.Relation, bool) {
		full := &relation.Relation{Schema: st.Schema()}
		for _, path := range st.SegmentPaths() {
			_, rows, err := segstore.ReadSegmentRows(path, nil, nil)
			if err != nil {
				fail(fmt.Sprintf("full-%s p=%d", stage, p), err.Error())
				return nil, false
			}
			full.Partitions = append(full.Partitions, rows)
		}
		ref, err := oracle.RunStage(full, ops)
		if err != nil {
			fail(fmt.Sprintf("oracle-%s p=%d", stage, p), err.Error())
			return nil, false
		}
		return ref, true
	}
	sortCol := filterCol(w, ops)
	for _, p := range []int{1, 2, 7} {
		st, err := buildPagedStore(filepath.Join(dir, fmt.Sprintf("%s-paged-p%d", family, p)), w, p, sortCol, opts)
		if err != nil {
			fail(fmt.Sprintf("store p=%d", p), err.Error())
			continue
		}
		if compact {
			ref, ok := oracleOf(st, "precompact", p)
			if !ok {
				continue
			}
			pass(st, ref, "precompact", p)
			if _, err := st.Compact(segstore.CompactOptions{}); err != nil {
				fail(fmt.Sprintf("compact p=%d", p), err.Error())
				continue
			}
		}
		ref, ok := oracleOf(st, "cold", p)
		if !ok {
			continue
		}
		pass(st, ref, "cold", p)
		pass(st, ref, "warm", p)
		live := map[string]bool{}
		for _, path := range st.SegmentPaths() {
			live[path] = true
		}
		for _, path := range st.CachedSegments() {
			if !live[path] {
				fail(fmt.Sprintf("cache p=%d", p), "cache entry left for retired segment "+path)
			}
		}
	}
	return fails, pruned
}

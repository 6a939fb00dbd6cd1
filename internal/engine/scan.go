// Scan-side predicate pushdown: the bridge between a persistent scan
// source (internal/segstore) and stage execution. The planner folds the
// leading Filter/Project run of a stage into a Pushdown so the source
// can (a) skip decoding columns the stage never touches and (b) prune
// whole segments whose zone maps prove no row can satisfy a pushed
// filter. Pushdown never changes the ops that run: the original stage
// executes unchanged against the scanned relation, so a pruned scan is
// bitwise-equal to full-scan-then-filter by construction (and the
// difftest scan invariant enforces it).
package engine

import (
	"context"
	"fmt"

	"ivnt/internal/expr"
	"ivnt/internal/relation"
)

// Pushdown is the part of a stage a scan source may exploit early.
//
// Filters holds the predicates of the stage's leading Filter ops, in
// plan order. A source may use them only to *prune*: if it can prove no
// row of a segment satisfies some pushed filter, the segment's rows
// never reach the engine (they would all be dropped by that Filter
// anyway). It must never evaluate them row-by-row on surviving
// segments — the stage's own Filter ops still run.
//
// Cols, when non-nil, is the schema-ordered set of columns the stage
// can possibly touch; the source decodes only those. Nil means the
// stage's column usage could not be bounded — decode everything.
//
// Segments, when non-nil, pins the scan to this segment list (a
// snapshot an earlier SegmentLister call returned) in place of the
// source's current one; refs that Skip come back as empty partitions.
// ScanAggregate sets it so that the segments it answered from footers
// and the ones it decodes come from one manifest snapshot, even when a
// compaction commits in between. Sources without segments ignore it.
type Pushdown struct {
	Filters  []string
	Cols     []string
	Segments []SegmentRef
}

// ScanSource is a relation that can be scanned with pushdown. Scan
// returns one partition per stored segment (pruned segments surface as
// empty partitions, keeping partition indexes stable), restricted to
// pd.Cols when non-nil.
type ScanSource interface {
	ScanSchema() relation.Schema
	Scan(ctx context.Context, pd Pushdown) (*relation.Relation, error)
}

// SegmentRef names one stored segment of a scan, so a distributed
// executor can read the segment file itself instead of receiving
// driver-shipped rows. Cols mirrors Pushdown.Cols; Rows is the footer
// row count (for stats, without decoding); Pruned marks segments whose
// zone maps proved the pushed filters unsatisfiable. Answer, when
// non-nil, is the segment's partial-aggregate row proved from its
// footer (see FooterAnswerer); the segment is then never read either.
// AnswerBytes goes with it: the string and byte payload of the
// segment's scanned cells, also proved from the footer, from which
// ScanAggregate sizes the rows it did not decode.
//
// Ranges, when non-nil, restricts the read to these row ranges of the
// segment: the pages whose page zone maps leave the pushed filters
// satisfiable, in order. Every row outside them provably fails a pushed
// filter, so the stage's output is the same either way. Pages is the
// segment's page count when its footer was consulted (0 otherwise), and
// PagesPruned the pages outside Ranges.
type SegmentRef struct {
	Path        string
	Cols        []string
	Rows        int
	Pruned      bool
	Answer      relation.Row
	AnswerBytes int64
	Ranges      []RowRange
	Pages       int
	PagesPruned int
}

// RowRange is the half-open row interval [Lo, Hi) of one segment.
type RowRange struct{ Lo, Hi int }

// Skip reports whether a scan leaves the segment unread: pruned,
// answered from its footer, or with every page pruned. Skipped segments
// surface as empty partitions, keeping partition indexes stable.
func (r SegmentRef) Skip() bool {
	return r.Pruned || r.Answer != nil || (r.Ranges != nil && len(r.Ranges) == 0)
}

// ReadRows returns the rows a scan of the segment reads: those in
// Ranges, or all of them.
func (r SegmentRef) ReadRows() int {
	if r.Ranges == nil {
		return r.Rows
	}
	n := 0
	for _, rr := range r.Ranges {
		n += rr.Hi - rr.Lo
	}
	return n
}

// pageStats counts the pages a scan of refs reads and the ones page
// zone maps let it skip, over the segments whose footers were consulted.
func pageStats(refs []SegmentRef) (scanned, pruned int) {
	for _, r := range refs {
		if r.Pruned || r.Answer != nil {
			continue
		}
		scanned += r.Pages - r.PagesPruned
		pruned += r.PagesPruned
	}
	return scanned, pruned
}

// SegmentLister is the optional ScanSource capability behind
// segment-scheduled scans: it exposes the segment files a Pushdown
// resolves to, one SegmentRef per segment in partition order.
type SegmentLister interface {
	Segments(pd Pushdown) ([]SegmentRef, error)
}

// FooterAnswerer is the optional ScanSource capability behind
// ScanAggregate. AnswerSegments resolves pd to its segments, as
// SegmentLister.Segments does, and sets Answer on each segment whose
// footer alone proves the partial-aggregate row a PartialAgg(groupBy,
// aggs) op would emit over that segment's scanned rows, together with
// AnswerBytes. A segment the footer cannot pin exactly keeps a nil
// Answer and is decoded as usual.
type FooterAnswerer interface {
	SegmentLister
	AnswerSegments(pd Pushdown, groupBy []string, aggs []AggSpec) ([]SegmentRef, error)
}

// SegmentExecutor is the optional Executor capability for running a
// stage directly from segment files (cluster.Driver implements it by
// shipping paths instead of encoded partitions). refs[i] becomes
// partition i of the stage input; schema is the decoded (possibly
// column-restricted) scan schema every ref resolves to.
type SegmentExecutor interface {
	Executor
	RunSegmentStage(ctx context.Context, refs []SegmentRef, schema relation.Schema, ops []OpDesc) (*relation.Relation, Stats, error)
}

// FoldPushdown derives the Pushdown for a stage over schema s: every
// leading Filter contributes its predicate, and if the leading run
// contains a Project, the scan can be restricted to the union of the
// columns the leading ops mention (later ops only see projected
// columns, so the union bounds the whole stage). Without a leading
// Project the rest of the stage may touch any column and Cols stays
// nil. The fold never reorders or rewrites ops — callers still run the
// original stage on the scanned relation.
func FoldPushdown(s relation.Schema, ops []OpDesc) (Pushdown, error) {
	var pd Pushdown
	need := map[string]bool{}
	sawProject := false
	for _, op := range ops {
		if op.Kind == OpFilter {
			n, err := expr.Parse(op.Expr)
			if err != nil {
				return Pushdown{}, fmt.Errorf("fold pushdown: filter %q: %w", op.Expr, err)
			}
			for _, id := range expr.Idents(n) {
				need[id] = true
			}
			pd.Filters = append(pd.Filters, op.Expr)
			continue
		}
		if op.Kind == OpProject {
			for _, c := range op.Cols {
				need[c] = true
			}
			sawProject = true
			continue
		}
		break
	}
	if sawProject {
		// Schema-ordered subsequence, so the restricted schema is a
		// stable projection of the stored one.
		for _, c := range s.Cols {
			if need[c.Name] {
				pd.Cols = append(pd.Cols, c.Name)
			}
		}
		if len(pd.Cols) != len(need) {
			missing := []string{}
			for n := range need {
				if !s.Has(n) {
					missing = append(missing, n)
				}
			}
			return Pushdown{}, fmt.Errorf("fold pushdown: columns %v not in scan schema %s", missing, s)
		}
	}
	return pd, nil
}

// ScanStage runs a stage against a scan source with pushdown: it folds
// the leading Filter/Project run into a Pushdown, scans (decoding only
// the needed columns, pruning segments the source can refute), and
// executes the unchanged ops on the result. When both the executor and
// the source speak segments, the stage is scheduled by segment file
// instead of shipping rows.
func ScanStage(ctx context.Context, exec Executor, src ScanSource, ops []OpDesc) (*relation.Relation, Stats, error) {
	full := src.ScanSchema()
	if _, err := OutputSchema(full, ops); err != nil {
		return nil, Stats{}, err
	}
	pd, err := FoldPushdown(full, ops)
	if err != nil {
		return nil, Stats{}, err
	}
	return runScanStage(ctx, exec, src, pd, ops)
}

// runScanStage runs ops over the scan of pd: by segment file when the
// executor and the source both speak segments, else over the source's
// Scan. A non-nil pd.Segments is the segment snapshot to run on.
func runScanStage(ctx context.Context, exec Executor, src ScanSource, pd Pushdown, ops []OpDesc) (*relation.Relation, Stats, error) {
	scanSchema := src.ScanSchema()
	if pd.Cols != nil {
		var err error
		if scanSchema, err = scanSchema.Project(pd.Cols...); err != nil {
			return nil, Stats{}, err
		}
	}
	// A segment source resolves its segments (and their page ranges)
	// here, so the scan, the segment-scheduled stage and the page
	// counters all see one manifest snapshot.
	if sl, ok := src.(SegmentLister); ok && pd.Segments == nil {
		var err error
		if pd.Segments, err = sl.Segments(pd); err != nil {
			return nil, Stats{}, err
		}
	}
	var rel *relation.Relation
	var st Stats
	var err error
	if se, ok := exec.(SegmentExecutor); ok && pd.Segments != nil {
		rel, st, err = se.RunSegmentStage(ctx, pd.Segments, scanSchema, ops)
	} else {
		if rel, err = src.Scan(ctx, pd); err != nil {
			return nil, Stats{}, err
		}
		if !rel.Schema.Equal(scanSchema) {
			return nil, Stats{}, fmt.Errorf("scan: source returned schema %s, want %s", rel.Schema, scanSchema)
		}
		rel, st, err = exec.RunStage(ctx, rel, ops)
	}
	if err != nil {
		return nil, Stats{}, err
	}
	st.PagesScanned, st.PagesPruned = pageStats(pd.Segments)
	return rel, st, nil
}

// MemSource adapts an in-memory relation to ScanSource: it restricts
// columns per the pushdown but has no zone maps, so it never prunes.
// Used by tests as the no-pruning reference scan.
type MemSource struct {
	Rel *relation.Relation
}

// ScanSchema returns the relation's schema.
func (m *MemSource) ScanSchema() relation.Schema { return m.Rel.Schema }

// Scan returns the relation with partitions preserved and columns
// restricted to pd.Cols (nil = all).
func (m *MemSource) Scan(_ context.Context, pd Pushdown) (*relation.Relation, error) {
	if pd.Cols == nil {
		return m.Rel, nil
	}
	s, err := m.Rel.Schema.Project(pd.Cols...)
	if err != nil {
		return nil, err
	}
	idx := make([]int, len(pd.Cols))
	for i, c := range pd.Cols {
		idx[i] = m.Rel.Schema.MustIndex(c)
	}
	parts := make([][]relation.Row, len(m.Rel.Partitions))
	for pi, part := range m.Rel.Partitions {
		rows := make([]relation.Row, len(part))
		for ri, r := range part {
			nr := make(relation.Row, len(idx))
			for i, ci := range idx {
				nr[i] = r[ci]
			}
			rows[ri] = nr
		}
		parts[pi] = rows
	}
	return &relation.Relation{Schema: s, Partitions: parts}, nil
}

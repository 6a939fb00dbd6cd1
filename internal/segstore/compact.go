// Background compaction: many small sealed segments become few large
// re-encoded ones. Streaming ingest and per-signal extraction both
// produce micro-segments; every one costs a footer read, an open, and a
// partition slot per scan. Compact rewrites adjacent runs of small
// segments into one segment under the same tmp-rename seal contract as
// AppendSegment, splices the manifest atomically, and bumps the
// generation — so serve-layer result caches invalidate by construction,
// exactly as if new data had been ingested.
//
// Readers never see a half-compaction: the manifest write is the commit
// point, and the replaced files are deleted one full compaction cycle
// AFTER the splice commits (or by the next Open, which reclaims any
// segment file the manifest does not name). A scan that snapshotted the
// pre-compaction segment list keeps reading files that still exist.
package segstore

import (
	"fmt"
	"os"
	"path/filepath"

	"ivnt/internal/relation"
)

// CompactOptions tune one Compact pass.
type CompactOptions struct {
	// TargetRows caps the rows of one rewritten segment (default 64 Ki).
	// Segments at or above it are left alone.
	TargetRows int

	// MinSegments is the smallest adjacent run worth rewriting
	// (default 2; values below 2 are meaningless and raised to it).
	MinSegments int
}

func (o CompactOptions) withDefaults() CompactOptions {
	if o.TargetRows <= 0 {
		o.TargetRows = 1 << 16
	}
	if o.MinSegments < 2 {
		o.MinSegments = 2
	}
	return o
}

// planGroups picks adjacent runs of small segments to merge: each group
// has at least MinSegments members and at most TargetRows combined
// rows. Adjacency preserves the store's row order — the concatenated
// full scan is bitwise-identical before and after.
func planGroups(segs []manifestSeg, opts CompactOptions) [][]manifestSeg {
	var groups [][]manifestSeg
	var cur []manifestSeg
	curRows := 0
	flush := func() {
		if len(cur) >= opts.MinSegments {
			groups = append(groups, cur)
		}
		cur, curRows = nil, 0
	}
	for _, s := range segs {
		if s.Rows >= opts.TargetRows {
			flush()
			continue
		}
		if curRows+s.Rows > opts.TargetRows {
			flush()
		}
		cur = append(cur, s)
		curRows += s.Rows
	}
	flush()
	return groups
}

// Compact rewrites adjacent runs of small segments into single larger
// ones (re-encoded under the store's current Options) and returns the
// number of groups rewritten. Each group commits independently — a
// failure mid-pass leaves every earlier group committed and the store
// consistent. Safe to run concurrently with appends and scans; at most
// one Compact runs at a time.
func (st *Store) Compact(opts CompactOptions) (int, error) {
	opts = opts.withDefaults()
	st.compactMu.Lock()
	defer st.compactMu.Unlock()

	// Delete the files retired by the PREVIOUS pass: any scan that could
	// have held the pre-compaction manifest has had a full cycle to
	// finish with them.
	st.mu.Lock()
	retired := st.retired
	st.retired = nil
	segs := append([]manifestSeg(nil), st.segs...)
	schema := st.schema
	st.mu.Unlock()
	for _, path := range retired {
		_ = os.Remove(path)
	}

	done := 0
	for _, grp := range planGroups(segs, opts) {
		if err := st.compactGroup(schema, grp); err != nil {
			return done, err
		}
		done++
		mCompactions.Inc()
	}
	return done, nil
}

// compactGroup rewrites one adjacent group into a single new segment
// and splices the manifest. The group's rows are read outside the store
// lock (sealed segments are immutable); only the manifest splice holds
// it.
func (st *Store) compactGroup(schema relation.Schema, grp []manifestSeg) error {
	var rows []relation.Row
	for _, e := range grp {
		s, segRows, err := ReadSegmentRows(filepath.Join(st.dir, e.Name), nil, nil)
		if err != nil {
			return fmt.Errorf("segstore: compact read %s: %w", e.Name, err)
		}
		if !s.Equal(schema) {
			return fmt.Errorf("segstore: compact: %s holds schema %s, store schema is %s", e.Name, s, schema)
		}
		if len(segRows) != e.Rows {
			return fmt.Errorf("segstore: compact: %s decodes %d rows, manifest says %d", e.Name, len(segRows), e.Rows)
		}
		rows = append(rows, segRows...)
	}
	img, err := encodeSegment(schema, rows, st.codecOpts())
	if err != nil {
		return err
	}

	st.mu.Lock()
	id := st.nextID
	st.nextID++
	st.mu.Unlock()
	name := segName(id)
	path := filepath.Join(st.dir, name)
	if err := writeSegmentFile(path, img); err != nil {
		return err
	}
	if err := sealCrash("manifest"); err != nil {
		return err
	}

	st.mu.Lock()
	defer st.mu.Unlock()
	// Re-locate the group: appends can only have grown the tail, and
	// compactions are serialized, so the members are still adjacent at
	// their original relative position (or something is badly wrong).
	i := 0
	for i < len(st.segs) && st.segs[i].Name != grp[0].Name {
		i++
	}
	if i+len(grp) > len(st.segs) {
		os.Remove(path)
		return fmt.Errorf("segstore: compact group head %s vanished from manifest", grp[0].Name)
	}
	for j, e := range grp {
		if st.segs[i+j].Name != e.Name {
			os.Remove(path)
			return fmt.Errorf("segstore: compact group member %s moved in manifest", e.Name)
		}
	}
	newSegs := make([]manifestSeg, 0, len(st.segs)-len(grp)+1)
	newSegs = append(newSegs, st.segs[:i]...)
	newSegs = append(newSegs, manifestSeg{Name: name, Rows: len(rows)})
	newSegs = append(newSegs, st.segs[i+len(grp):]...)
	oldSegs, oldGen := st.segs, st.gen
	st.segs, st.gen = newSegs, st.gen+1
	if err := st.writeManifestLocked(nil, 0); err != nil {
		// Commit failed: restore the in-memory view to match disk and
		// drop the new segment as an orphan.
		st.segs, st.gen = oldSegs, oldGen
		os.Remove(path)
		return err
	}
	mSegmentsWritten.Inc()
	for _, e := range grp {
		old := filepath.Join(st.dir, e.Name)
		st.dropEntryLocked(old)
		st.retired = append(st.retired, old)
	}
	return nil
}

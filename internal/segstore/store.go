// Store: a directory of immutable segment files plus a CRC'd manifest
// naming the committed ones. The manifest is the commit point — a
// segment exists once (a) its file is fully written, fsynced and
// renamed into place and (b) the manifest names it. Anything else in
// the directory (a *.tmp from a writer that died mid-seal, a renamed
// segment whose manifest update never happened) is torn state: Open
// deletes temp files and ignores orphans, so a crash at any point
// leaves every previously sealed segment readable bit for bit.
package segstore

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"ivnt/internal/colcodec"
	"ivnt/internal/engine"
	"ivnt/internal/relation"
)

// Options tune a store.
type Options struct {
	// Compress runs each column chunk through DEFLATE (colcodec's
	// compressed framing). Chunks decompress independently, so
	// projection still skips unread columns entirely.
	Compress bool

	// Level is the DEFLATE level when Compress is set (0 =
	// flate.BestSpeed; see colcodec.Options.Level).
	Level int

	// Encodings enables per-column dictionary/RLE chunk encodings:
	// the writer keeps whichever of raw/dict/RLE is smallest for each
	// column. Readers accept all encodings regardless of this option,
	// so stores written either way coexist in one directory.
	Encodings bool
}

// codecOpts maps store options onto the chunk codec.
func (st *Store) codecOpts() colcodec.Options {
	return colcodec.Options{Compress: st.opts.Compress, Level: st.opts.Level, Encodings: st.opts.Encodings}
}

// Debug hooks, nil in production (same pattern as the engine's spill
// fault hooks). Tests use them to inject crashes and corruption.
var (
	// DebugSealFailure, when non-nil, is consulted before each stage of
	// a segment seal — "chunks", "footer", "sync", "rename", "manifest"
	// — and a returned error aborts the seal AT that point without any
	// cleanup, simulating a writer killed mid-seal. (A normal I/O error
	// removes the temp file; a simulated kill must not, because a dead
	// process cleans up nothing.)
	DebugSealFailure func(stage string) error
	// DebugZoneMutate, when non-nil, edits each column's zone map as a
	// footer is loaded for pruning, simulating a corrupt or buggy zone
	// map. Note the detectable direction is TIGHTENING a bound (the
	// difftest asserts a falsely pruned segment breaks bitwise
	// equality); loosening a bound merely forfeits pruning, which is
	// correct by the conservative contract.
	DebugZoneMutate func(col string, z *ZoneMap)
)

const (
	manifestName    = "MANIFEST"
	manifestVersion = 1
	maxManifestLen  = 1 << 24
)

var manifestMagic = [4]byte{'I', 'V', 'S', 'M'}

// manifestPayload is the gob body of the manifest file. The file
// framing is magic | payloadLen:uint32 | payloadCRC:uint32 | payload.
// Generation counts seals monotonically over the store's life and is
// the result-cache invalidation token (see Store.Generation); the field
// is gob-additive, so manifests written before it existed decode with
// Generation 0 and Open derives len(Segs) as a floor.
type manifestPayload struct {
	Version    int
	Generation uint64
	Cols       []manifestCol
	Segs       []manifestSeg
}

type manifestCol struct {
	Name string
	Kind uint8
}

type manifestSeg struct {
	Name string // file name within the store directory
	Rows int
}

// Store is an open segment store for one relation. It implements
// engine.ScanSource, engine.SegmentLister and engine.FooterAnswerer;
// all methods are safe for concurrent use.
type Store struct {
	dir  string
	opts Options

	mu     sync.Mutex
	schema relation.Schema
	segs   []manifestSeg
	gen    uint64 // committed manifest generation (seal counter)
	nextID int
	foots  map[string]*footer // pruning footer cache, keyed by path

	// compactMu serializes compactions (one rewrite cycle at a time);
	// retired holds paths replaced by a committed compaction, deleted
	// one full cycle later so scans that snapshotted the pre-compaction
	// manifest can finish (see Compact).
	compactMu sync.Mutex
	retired   []string
}

var (
	_ engine.ScanSource     = (*Store)(nil)
	_ engine.SegmentLister  = (*Store)(nil)
	_ engine.FooterAnswerer = (*Store)(nil)
)

// Open opens (or creates) the store in dir. A zero-length schema adopts
// the existing manifest's schema; a non-empty schema must match an
// existing manifest exactly, and is required to create a new store.
// Open removes temp files left by crashed writers and ignores segment
// files the manifest does not name.
func Open(dir string, schema relation.Schema, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st := &Store{dir: dir, opts: opts, schema: schema, foots: map[string]*footer{}}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segNames []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			// Torn writer state from a crash mid-seal; the segment was
			// never committed, so the bytes are garbage by contract.
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return nil, fmt.Errorf("segstore: clean %s: %w", name, err)
			}
			continue
		}
		if id, ok := parseSegName(name); ok {
			if id >= st.nextID {
				st.nextID = id + 1
			}
			segNames = append(segNames, name)
		}
	}
	mpath := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(mpath)
	switch {
	case err == nil:
		p, err := parseManifest(data)
		if err != nil {
			return nil, fmt.Errorf("segstore: %s: %w", mpath, err)
		}
		stored := manifestSchema(p)
		if schema.Len() > 0 && !schema.Equal(stored) {
			return nil, fmt.Errorf("segstore: %s holds schema %s, caller wants %s", dir, stored, schema)
		}
		st.schema = stored
		st.segs = p.Segs
		st.gen = p.Generation
		if floor := uint64(len(p.Segs)); st.gen < floor {
			// Manifest predates the Generation field: every committed
			// segment was one seal, so len(Segs) is an exact floor.
			st.gen = floor
		}
	case os.IsNotExist(err):
		if schema.Len() == 0 {
			return nil, fmt.Errorf("segstore: %s has no manifest and no schema was given", dir)
		}
		if err := st.writeManifestLocked(); err != nil {
			return nil, err
		}
	default:
		return nil, err
	}
	// Reclaim orphans: segment files the manifest does not name are
	// uncommitted by contract — a seal that died before its manifest
	// update, or a pre-compaction segment whose deferred deletion never
	// ran. nextID already counted them, so their names are not reused.
	committed := make(map[string]bool, len(st.segs))
	for _, s := range st.segs {
		committed[s.Name] = true
	}
	for _, name := range segNames {
		if !committed[name] {
			_ = os.Remove(filepath.Join(dir, name))
		}
	}
	return st, nil
}

// parseSegName extracts the numeric id from "seg-NNNNNN.ivsg".
func parseSegName(name string) (int, bool) {
	if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".ivsg") {
		return 0, false
	}
	id, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".ivsg"))
	if err != nil || id < 0 {
		return 0, false
	}
	return id, true
}

func manifestSchema(p *manifestPayload) relation.Schema {
	cols := make([]relation.Column, len(p.Cols))
	for i, c := range p.Cols {
		cols[i] = relation.Column{Name: c.Name, Kind: relation.Kind(c.Kind)}
	}
	return relation.Schema{Cols: cols}
}

// parseManifest validates framing, CRC and content of a manifest file.
func parseManifest(data []byte) (*manifestPayload, error) {
	if len(data) < 12 || [4]byte(data[:4]) != manifestMagic {
		return nil, fmt.Errorf("bad manifest magic")
	}
	plen := int64(le32(data[4:8]))
	if plen > maxManifestLen || plen != int64(len(data))-12 {
		return nil, fmt.Errorf("manifest length %d does not match %d-byte file", plen, len(data))
	}
	payload := data[12:]
	if got, want := crc32.ChecksumIEEE(payload), le32(data[8:12]); got != want {
		return nil, fmt.Errorf("manifest CRC mismatch (got %08x, want %08x)", got, want)
	}
	var p manifestPayload
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&p); err != nil {
		return nil, fmt.Errorf("manifest decode: %w", err)
	}
	if p.Version != manifestVersion {
		return nil, fmt.Errorf("unsupported manifest version %d", p.Version)
	}
	if len(p.Cols) > maxCols {
		return nil, fmt.Errorf("manifest claims %d columns", len(p.Cols))
	}
	seenCol := map[string]bool{}
	for _, c := range p.Cols {
		if c.Name == "" || len(c.Name) > maxNameLen || seenCol[c.Name] || c.Kind > uint8(relation.KindBytes) {
			return nil, fmt.Errorf("bad manifest column %q", c.Name)
		}
		seenCol[c.Name] = true
	}
	seenSeg := map[string]bool{}
	for _, s := range p.Segs {
		if _, ok := parseSegName(s.Name); !ok || s.Name != filepath.Base(s.Name) || seenSeg[s.Name] {
			return nil, fmt.Errorf("bad manifest segment name %q", s.Name)
		}
		if s.Rows < 0 || s.Rows > maxRows {
			return nil, fmt.Errorf("bad manifest row count %d for %q", s.Rows, s.Name)
		}
		seenSeg[s.Name] = true
	}
	return &p, nil
}

// writeManifestLocked rewrites the manifest atomically (temp + fsync +
// rename). Callers hold st.mu or have exclusive access.
func (st *Store) writeManifestLocked() error {
	p := manifestPayload{Version: manifestVersion, Generation: st.gen, Segs: st.segs}
	for _, c := range st.schema.Cols {
		p.Cols = append(p.Cols, manifestCol{Name: c.Name, Kind: uint8(c.Kind)})
	}
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(&p); err != nil {
		return err
	}
	out := make([]byte, 0, body.Len()+12)
	out = append(out, manifestMagic[:]...)
	out = appendLE32(out, uint32(body.Len()))
	out = appendLE32(out, crc32.ChecksumIEEE(body.Bytes()))
	out = append(out, body.Bytes()...)

	path := filepath.Join(st.dir, manifestName)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(out); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// Dir returns the store directory.
func (st *Store) Dir() string { return st.dir }

// Generation returns the committed manifest generation: a monotonic
// seal counter, bumped exactly when a new segment commits. Result
// caches key entries on it — a bump makes every cached result for the
// relation unreachable, which is the whole invalidation contract (see
// docs/QUERY.md).
func (st *Store) Generation() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.gen
}

// Schema returns the stored schema.
func (st *Store) Schema() relation.Schema {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.schema
}

// NumSegments returns the number of committed segments.
func (st *Store) NumSegments() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.segs)
}

// Rows returns the total committed row count (from manifest metadata,
// no file access).
func (st *Store) Rows() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	total := 0
	for _, s := range st.segs {
		total += s.Rows
	}
	return total
}

// SegmentPaths returns the committed segment files in order.
func (st *Store) SegmentPaths() []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	paths := make([]string, len(st.segs))
	for i, s := range st.segs {
		paths[i] = filepath.Join(st.dir, s.Name)
	}
	return paths
}

// AppendSegment seals rows as one new immutable segment and commits it
// to the manifest. The write order is the crash contract: chunk bytes →
// footer+trailer → fsync → rename tmp into place → manifest update. A
// crash before the rename leaves only a temp file (cleaned on next
// Open); a crash before the manifest update leaves an orphan segment
// file the manifest never names.
func (st *Store) AppendSegment(rows []relation.Row) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	img, err := encodeSegment(st.schema, rows, st.codecOpts())
	if err != nil {
		return err
	}
	name := fmt.Sprintf("seg-%06d.ivsg", st.nextID)
	if err := writeSegmentFile(filepath.Join(st.dir, name), img); err != nil {
		return err
	}
	if err := sealCrash("manifest"); err != nil {
		return err
	}
	st.segs = append(st.segs, manifestSeg{Name: name, Rows: len(rows)})
	st.gen++
	if err := st.writeManifestLocked(); err != nil {
		// The segment file stays behind as an uncommitted orphan; the
		// in-memory view must keep matching the on-disk manifest.
		st.segs = st.segs[:len(st.segs)-1]
		st.gen--
		return err
	}
	st.nextID++
	mSegmentsWritten.Inc()
	return nil
}

// sealCrash consults the DebugSealFailure hook for one seal stage.
func sealCrash(stage string) error {
	if DebugSealFailure == nil {
		return nil
	}
	if err := DebugSealFailure(stage); err != nil {
		return fmt.Errorf("segstore: injected crash at %s: %w", stage, err)
	}
	return nil
}

// writeSegmentFile writes a sealed segment image under the crash
// contract shared by AppendSegment and Compact: chunk bytes →
// footer+trailer → fsync → rename *.tmp into place. The caller commits
// the file by naming it in the manifest; until then it is a removable
// orphan.
func writeSegmentFile(path string, img *segmentImage) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	fail := func(err error) error { // ordinary failure: clean up the temp
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := f.Write(img.header); err != nil {
		return fail(err)
	}
	if err := sealCrash("chunks"); err != nil {
		f.Close()
		return err
	}
	for _, chunk := range img.chunks {
		if _, err := f.Write(chunk); err != nil {
			return fail(err)
		}
	}
	if err := sealCrash("footer"); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(img.tail); err != nil {
		return fail(err)
	}
	if err := sealCrash("sync"); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := sealCrash("rename"); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// Writer batches rows into segments: Append buffers, Seal commits the
// buffer as one segment (no-op when empty).
type Writer struct {
	st   *Store
	rows []relation.Row
}

// Writer returns a new segment writer for the store.
func (st *Store) Writer() *Writer { return &Writer{st: st} }

// Append buffers rows for the next segment.
func (w *Writer) Append(rows ...relation.Row) { w.rows = append(w.rows, rows...) }

// Buffered returns the number of rows awaiting Seal.
func (w *Writer) Buffered() int { return len(w.rows) }

// Seal commits the buffered rows as one segment and resets the buffer.
func (w *Writer) Seal() error {
	if len(w.rows) == 0 {
		return nil
	}
	if err := w.st.AppendSegment(w.rows); err != nil {
		return err
	}
	w.rows = nil
	return nil
}

// ------------------------------------------------------------- scanning

// ScanSchema implements engine.ScanSource.
func (st *Store) ScanSchema() relation.Schema { return st.Schema() }

// Segments implements engine.SegmentLister: one SegmentRef per
// committed segment, in manifest order, with Pruned set on segments
// whose zone maps refute a pushed filter. Only footers are read here.
func (st *Store) Segments(pd engine.Pushdown) ([]engine.SegmentRef, error) {
	cs, err := pruneConjuncts(pd.Filters)
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	segs := append([]manifestSeg(nil), st.segs...)
	st.mu.Unlock()
	refs := make([]engine.SegmentRef, len(segs))
	for i, e := range segs {
		path := filepath.Join(st.dir, e.Name)
		pruned := false
		if len(cs) > 0 {
			foot, err := st.loadFooter(path)
			if err != nil {
				return nil, err
			}
			pruned = segmentPruned(cs, foot)
		}
		if pruned {
			mSegmentsPruned.Inc()
		}
		refs[i] = engine.SegmentRef{Path: path, Cols: pd.Cols, Rows: e.Rows, Pruned: pruned}
	}
	return refs, nil
}

// AnswerSegments implements engine.FooterAnswerer: the refs Segments
// returns, with Answer and AnswerBytes set on each live segment whose
// footer pins its partial-aggregate row (aggmeta.go). Pushed filters disable answers:
// a filter may drop rows the footer counts.
func (st *Store) AnswerSegments(pd engine.Pushdown, groupBy []string, aggs []engine.AggSpec) ([]engine.SegmentRef, error) {
	refs, err := st.Segments(pd)
	if err != nil || len(pd.Filters) > 0 {
		return refs, err
	}
	for i := range refs {
		foot, err := st.loadFooter(refs[i].Path)
		if err != nil {
			return nil, err
		}
		if row, payload, ok := footerPartial(foot, refs[i].Cols, groupBy, aggs); ok {
			refs[i].Answer, refs[i].AnswerBytes = row, payload
			mSegmentsAnswered.Inc()
		}
	}
	return refs, nil
}

// loadFooter returns the segment's footer for pruning, cached per path
// (segments are immutable, so a footer never goes stale).
func (st *Store) loadFooter(path string) (*footer, error) {
	st.mu.Lock()
	foot := st.foots[path]
	st.mu.Unlock()
	if foot != nil {
		return foot, nil
	}
	g, err := OpenSegment(path)
	if err != nil {
		return nil, err
	}
	g.Close() // footer already parsed; chunks are read elsewhere
	foot = g.foot
	if DebugZoneMutate != nil {
		for i := range foot.cols {
			DebugZoneMutate(foot.cols[i].name, &foot.cols[i].zone)
		}
	}
	st.mu.Lock()
	st.foots[path] = foot
	st.mu.Unlock()
	return foot, nil
}

// Scan implements engine.ScanSource: one partition per committed
// segment (per pd.Segments ref when the caller pinned a snapshot),
// pruned and answered segments as empty partitions (partition indexes
// stay stable either way), columns restricted to pd.Cols when
// non-nil. The live segments decode in parallel on a GOMAXPROCS-sized worker pool
// (the engine.Local default), each straight into its own partition; the
// result and the error reported are those of a serial scan in manifest
// order.
func (st *Store) Scan(ctx context.Context, pd engine.Pushdown) (*relation.Relation, error) {
	var err error
	refs := pd.Segments
	if refs == nil {
		if refs, err = st.Segments(pd); err != nil {
			return nil, err
		}
	}
	scanSchema := st.Schema()
	if pd.Cols != nil {
		scanSchema, err = scanSchema.Project(pd.Cols...)
		if err != nil {
			return nil, err
		}
	}
	parts := make([][]relation.Row, len(refs))
	err = forEachOrdered(len(refs), runtime.GOMAXPROCS(0), func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		ref := refs[i]
		if ref.Skip() {
			return nil
		}
		s, rows, err := ReadSegmentRows(ref.Path, ref.Cols)
		if err != nil {
			return err
		}
		if !s.Equal(scanSchema) {
			return fmt.Errorf("segstore: %s decodes to schema %s, store schema is %s", ref.Path, s, scanSchema)
		}
		parts[i] = rows
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &relation.Relation{Schema: scanSchema, Partitions: parts}, nil
}

// forEachOrdered runs fn(0..n-1) on up to workers goroutines, handing
// indexes out in ascending order, and returns the error of the lowest
// failing index — the error a serial loop stopping at its first failure
// would return. Once a failure is recorded, no higher index starts;
// every lower one still runs, so the reported error does not depend on
// timing.
func forEachOrdered(n, workers int, fn func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var lowestFail atomic.Int64
	lowestFail.Store(int64(n))
	work := func() {
		for {
			i := next.Add(1) - 1
			if i >= lowestFail.Load() {
				return
			}
			if err := fn(int(i)); err != nil {
				errs[i] = err
				for {
					cur := lowestFail.Load()
					if i >= cur || lowestFail.CompareAndSwap(cur, i) {
						break
					}
				}
			}
		}
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// SortedSegmentNames is a test helper exposing the committed segment
// file names in manifest order.
func (st *Store) SortedSegmentNames() []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	names := make([]string, len(st.segs))
	for i, s := range st.segs {
		names[i] = s.Name
	}
	sort.Strings(names)
	return names
}

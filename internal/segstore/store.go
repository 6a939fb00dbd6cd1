// Store: a directory of immutable segment files plus a CRC'd manifest
// naming the committed ones. The manifest is the commit point — a
// segment exists once (a) its file is fully written, fsynced and
// renamed into place and (b) the manifest names it. Anything else in
// the directory (a *.tmp from a writer that died mid-seal, a renamed
// segment whose manifest update never happened) is torn state: Open
// deletes temp files and ignores orphans, so a crash at any point
// leaves every previously sealed segment readable bit for bit.
//
// The manifest file is a log of CRC frames: a whole manifest, then one
// small frame per appended segment. A seal appends its frame and
// fsyncs it, so it frees no disk blocks (replacing the file would
// unlink the old one's, which on a discard-mounted file system is the
// slowest step of a seal); Open replays the complete frames. A final
// frame shorter than its declared length is a torn append — the commit
// it carried never happened — and the next commit rewrites the log.
// Compact, and any commit that would grow the log past maxManifestLog,
// rewrite it as one whole-manifest frame by temp file, fsync and rename
// instead. (Appending whole manifests would grow the log with the
// square of the segment count: a store of 108 small segments would
// hold more manifest than data.)
package segstore

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"math"
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
	// — half way through writing the manifest frame ("torn") and before
	// the frame's fsync ("logsync"); a returned error aborts the seal AT
	// that point. In the segment file stages it skips the temp file's
	// cleanup, simulating a writer killed mid-seal; in the manifest
	// stages it fails like an I/O error there, which the writer undoes.
	DebugSealFailure func(stage string) error
	// DebugZoneMutate, when non-nil, edits each zone map as a footer is
	// loaded for pruning, simulating a corrupt or buggy zone map: each
	// column's segment zone (page -1), then each of its v3 page zones
	// (page 0..pages-1). Note the detectable direction is TIGHTENING a
	// bound (the difftest asserts a falsely pruned segment or page
	// breaks bitwise equality); loosening a bound merely forfeits
	// pruning, which is correct by the conservative contract.
	DebugZoneMutate func(col string, page, pages int, z *ZoneMap)
)

const (
	manifestName    = "MANIFEST"
	manifestVersion = 1
	maxManifestLen  = 1 << 24
	// maxManifestLog bounds the manifest log: a commit whose frame would
	// grow it past this rewrites it as a single frame.
	maxManifestLog = 1 << 20
	// maxAppendLen bounds an append frame's payload (two uvarints), so a
	// corrupt length field is not mistaken for a torn tail.
	maxAppendLen = 2 * binary.MaxVarintLen64
)

var (
	manifestMagic = [4]byte{'I', 'V', 'S', 'M'} // frame holding a whole manifest
	appendMagic   = [4]byte{'I', 'V', 'S', 'A'} // frame appending one segment
)

// manifestPayload is the gob body of a whole-manifest frame. A frame is
// magic | payloadLen:uint32 | payloadCRC:uint32 | payload. The file is
// a sequence of frames: a whole manifest (magic "IVSM"), then append
// frames (magic "IVSA", payload segID:uvarint rows:uvarint), each of
// which adds segment seg-<segID>.ivsg and bumps the generation.
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
	cache  map[string]*segEntry // per committed segment, keyed by path (cache.go)
	dicts  dictLRU              // the entries' decoded dictionaries

	// logSize is the manifest log's length; rewriteLog is set when its
	// tail may hold a torn or uncommitted frame, so the next commit must
	// replace it.
	logSize    int64
	rewriteLog bool

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
	st := &Store{dir: dir, opts: opts, schema: schema, cache: map[string]*segEntry{}}
	st.dicts.budget = dictCacheBytes
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
		p, torn, err := parseManifest(data)
		if err != nil {
			return nil, fmt.Errorf("segstore: %s: %w", mpath, err)
		}
		st.logSize, st.rewriteLog = int64(len(data)), torn
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
		if err := st.writeManifestLocked(nil, 0); err != nil {
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

// parseManifest validates a manifest log's frames and replays them.
// torn reports a final frame cut short (a torn append), which is
// ignored; a complete frame with a bad CRC, or bytes that are not a
// frame, fail.
func parseManifest(data []byte) (p *manifestPayload, torn bool, err error) {
	var names map[string]bool // p's segment names, for the append frames' duplicate check
	for rest := data; len(rest) > 0; {
		at := len(data) - len(rest)
		head := rest[:min(len(rest), 4)]
		whole := bytes.HasPrefix(manifestMagic[:], head)
		if !whole && !bytes.HasPrefix(appendMagic[:], head) {
			return nil, false, fmt.Errorf("bad manifest magic at byte %d", at)
		}
		if len(rest) < 12 {
			torn = true
			break
		}
		plen := int64(le32(rest[4:8]))
		if plen > maxManifestLen || (!whole && plen > maxAppendLen) {
			return nil, false, fmt.Errorf("manifest frame length %d at byte %d exceeds cap", plen, at)
		}
		if plen > int64(len(rest))-12 {
			torn = true
			break
		}
		payload := rest[12 : 12+plen]
		if got, want := crc32.ChecksumIEEE(payload), le32(rest[8:12]); got != want {
			return nil, false, fmt.Errorf("manifest CRC mismatch at byte %d (got %08x, want %08x)", at, got, want)
		}
		rest = rest[12+plen:]
		if whole {
			if p, err = decodeManifest(payload); err != nil {
				return nil, false, err
			}
			names = make(map[string]bool, len(p.Segs))
			for _, s := range p.Segs {
				names[s.Name] = true
			}
			continue
		}
		if p == nil {
			return nil, false, fmt.Errorf("manifest append frame at byte %d precedes any manifest", at)
		}
		if err := p.replayAppend(payload, names); err != nil {
			return nil, false, fmt.Errorf("manifest append frame at byte %d: %w", at, err)
		}
	}
	if p == nil {
		return nil, false, fmt.Errorf("manifest holds no complete frame")
	}
	return p, torn, nil
}

// decodeManifest decodes and validates a whole-manifest payload.
func decodeManifest(payload []byte) (*manifestPayload, error) {
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

// replayAppend applies one append frame's payload; names holds p's
// segment names and gains the appended one.
func (p *manifestPayload) replayAppend(payload []byte, names map[string]bool) error {
	rd := &reader{buf: payload}
	id, err := rd.uvarint()
	if err != nil {
		return err
	}
	rows, err := rd.uvarint()
	if err != nil {
		return err
	}
	if len(rd.rest()) != 0 || id > math.MaxInt32 || rows > maxRows {
		return fmt.Errorf("bad append record (segment %d, %d rows, %d trailing bytes)", id, rows, len(rd.rest()))
	}
	name := segName(int(id))
	if names[name] {
		return fmt.Errorf("segment %s appended twice", name)
	}
	names[name] = true
	p.Segs = append(p.Segs, manifestSeg{Name: name, Rows: int(rows)})
	p.Generation++
	return nil
}

// segName is the file name of segment id.
func segName(id int) string { return fmt.Sprintf("seg-%06d.ivsg", id) }

// frame wraps a payload in the manifest framing.
func frame(magic [4]byte, payload []byte) []byte {
	out := make([]byte, 0, len(payload)+12)
	out = append(out, magic[:]...)
	out = appendLE32(out, uint32(len(payload)))
	out = appendLE32(out, crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

// writeManifestLocked commits the in-memory manifest. When add is the
// segment this commit appended (st.segs' last, with id addID), one
// append frame goes to the end of the log and is fsynced. Otherwise —
// and whenever the log's tail may be torn or the frame would grow it
// past maxManifestLog — the log is replaced by one whole-manifest frame
// (temp + fsync + rename). Callers hold st.mu or have exclusive access.
func (st *Store) writeManifestLocked(add *manifestSeg, addID int) error {
	path := filepath.Join(st.dir, manifestName)
	if add != nil {
		w := newByteWriter()
		w.uvarint(uint64(addID))
		w.uvarint(uint64(add.Rows))
		fr := frame(appendMagic, w.bytes())
		if !st.rewriteLog && st.logSize+int64(len(fr)) <= maxManifestLog {
			return st.appendFrameLocked(path, fr)
		}
	}
	p := manifestPayload{Version: manifestVersion, Generation: st.gen, Segs: st.segs}
	for _, c := range st.schema.Cols {
		p.Cols = append(p.Cols, manifestCol{Name: c.Name, Kind: uint8(c.Kind)})
	}
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(&p); err != nil {
		return err
	}
	fr := frame(manifestMagic, body.Bytes())
	if err := replaceFile(path, fr); err != nil {
		return err
	}
	st.logSize, st.rewriteLog = int64(len(fr)), false
	return nil
}

// appendFrameLocked appends fr to the manifest log and fsyncs it. If
// either fails, the log is cut back to its last commit, so the next
// Open cannot replay a frame whose commit was reported failed. If the
// cut fails too, the next commit replaces the log, frame and all (a
// caller retrying the seal is that commit).
func (st *Store) appendFrameLocked(path string, fr []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	err = writeFrame(f, fr)
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		if f.Truncate(st.logSize) != nil || f.Sync() != nil {
			st.rewriteLog = true
		}
		return err
	}
	st.logSize += int64(len(fr))
	return nil
}

// writeFrame writes a manifest frame in two halves, with the "torn"
// crash stage between them and the "logsync" stage after them.
func writeFrame(f *os.File, frame []byte) error {
	half := len(frame) / 2
	if _, err := f.Write(frame[:half]); err != nil {
		return err
	}
	if err := sealCrash("torn"); err != nil {
		return err
	}
	if _, err := f.Write(frame[half:]); err != nil {
		return err
	}
	return sealCrash("logsync")
}

// replaceFile atomically replaces path with data: temp file, fsync,
// rename.
func replaceFile(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := writeFrame(f, data); err != nil {
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
	name := segName(st.nextID)
	if err := writeSegmentFile(filepath.Join(st.dir, name), img); err != nil {
		return err
	}
	if err := sealCrash("manifest"); err != nil {
		return err
	}
	st.segs = append(st.segs, manifestSeg{Name: name, Rows: len(rows)})
	st.gen++
	if err := st.writeManifestLocked(&st.segs[len(st.segs)-1], st.nextID); err != nil {
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
	if _, err := f.Write(img.chunks); err != nil {
		return fail(err)
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
// whose zone maps refute a pushed filter. On the live segments of a v3
// store the page zones select row ranges: Ranges lists the pages some
// row of which may pass (nil when that is every page), and PagesPruned
// counts the rest. Only footers are read here.
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
		ref := engine.SegmentRef{Path: filepath.Join(st.dir, e.Name), Cols: pd.Cols, Rows: e.Rows}
		if len(cs) > 0 {
			foot, err := st.loadFooter(ref.Path)
			if err != nil {
				return nil, err
			}
			ref.Pages = foot.numPages()
			ref.Pruned = segmentPruned(cs, foot)
			if ref.Pruned {
				mSegmentsPruned.Inc()
			} else if len(foot.pages) > 1 {
				ranges, dropped := pageSelection(cs, foot)
				if dropped > 0 {
					ref.Ranges, ref.PagesPruned = ranges, dropped
					mPagesPruned.Add(int64(dropped))
				}
			}
		}
		refs[i] = ref
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

// loadFooter returns the segment's footer from its cache entry.
func (st *Store) loadFooter(path string) (*footer, error) {
	e, err := st.entry(path)
	if err != nil {
		return nil, err
	}
	return e.foot, nil
}

// Scan implements engine.ScanSource: one partition per committed
// segment (per pd.Segments ref when the caller pinned a snapshot),
// pruned and answered segments as empty partitions (partition indexes
// stay stable either way), columns restricted to pd.Cols when
// non-nil, and each segment restricted to its ref's page Ranges. The
// live segments decode in parallel on a GOMAXPROCS-sized worker pool
// (the engine.Local default), each through its cache entry (cache.go)
// straight into its own partition; the
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
		s, rows, err := st.readSegment(ref)
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

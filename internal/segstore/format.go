// Package segstore is the persistent columnar segment store: the
// on-disk system of record behind the engine's scan path. A relation is
// stored as a directory of immutable segment files plus a CRC'd
// manifest; each segment holds one colcodec chunk per column and a
// footer with per-column zone maps, so a scan can decode only the
// columns a stage touches and skip whole segments whose zone maps prove
// a pushed-down filter unsatisfiable (see docs/STORAGE.md).
//
// Segment file layout (all multi-byte integers little-endian; varints
// are unsigned unless noted):
//
//	header   "IVSG" version:uint8
//	chunks   one colcodec payload per column, contiguous — column i of
//	         the stored schema encoded standalone (single-column
//	         colcodec stream), so a reader can fetch any column with one
//	         ReadAt of [off, off+size) and nothing else
//	footer   see encodeFooter; carries the schema, each chunk's
//	         [off, size), and each column's zone map
//	trailer  footerLen:uint32 footerCRC:uint32 "IVS1"
//
// The fixed-size trailer makes lazy access possible: a reader seeks to
// EOF-12, validates the CRC'd footer, and from then on touches only the
// chunk byte ranges it needs. Unprojected columns are never read, let
// alone decoded.
//
// The footer parser is hardened to the same standard as colcodec's
// decoder (it shares its row cap): every count, length and offset is
// bounds-checked against the file size, chunks must be strictly
// ascending and non-overlapping, and zone maps must be internally
// consistent (min <= max, counts that add up) — a corrupt or
// adversarial segment yields an error, never a panic or an OOM. The
// FuzzFooter / FuzzSegmentDecode targets pin this down.
package segstore

import (
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"ivnt/internal/colcodec"
	"ivnt/internal/relation"
)

const (
	formatVersion = 1

	headerLen  = 5  // "IVSG" + version
	trailerLen = 12 // footerLen u32 | footerCRC u32 | "IVS1"

	// maxRows mirrors colcodec's decode cap: a footer claiming more
	// rows than any partition could hold is corrupt, not big.
	maxRows = 1 << 28
	// maxCols bounds the schema width a footer may claim.
	maxCols = 4096
	// maxNameLen bounds one column name.
	maxNameLen = 256
	// maxZoneStrLen bounds the string min/max carried in a zone map
	// (the writer stores bounds verbatim; trace strings are short).
	maxZoneStrLen = 1 << 16
	// maxFooterLen bounds the footer allocation before the CRC check.
	maxFooterLen = 1 << 24
)

var (
	headerMagic  = [4]byte{'I', 'V', 'S', 'G'}
	trailerMagic = [4]byte{'I', 'V', 'S', '1'}
)

// ZoneMap summarizes one column of one segment for pruning. The counts
// partition the column's cells by how the expression engine would
// compare them (see prune.go for the exact rules each field licenses):
// Nulls counts null cells; of the non-null cells, NumKind are int/float
// kinds, NumOrd are numerically ordered (int/float kinds plus strings
// that parse as numbers — expr.compareForOrder compares those as
// floats), NaNs are the NumOrd cells whose float value is NaN, and Strs
// are string-kind cells. FMin/FMax bound the float values of the
// non-NaN NumOrd cells (valid when FHas); SMin/SMax bound the string
// cells lexicographically (valid when SHas).
type ZoneMap struct {
	Nulls   int
	NumKind int
	NumOrd  int
	NaNs    int
	Strs    int

	FHas       bool
	FMin, FMax float64

	SHas       bool
	SMin, SMax string
}

// zoneOf computes column ci's zone map over rows.
func zoneOf(rows []relation.Row, ci int) ZoneMap {
	var z ZoneMap
	for _, r := range rows {
		v := r[ci]
		if v.K == relation.KindNull {
			z.Nulls++
			continue
		}
		if v.K == relation.KindInt || v.K == relation.KindFloat {
			z.NumKind++
		}
		if v.K == relation.KindString {
			z.Strs++
			if !z.SHas || v.S < z.SMin {
				z.SMin = v.S
			}
			if !z.SHas || v.S > z.SMax {
				z.SMax = v.S
			}
			z.SHas = true
		}
		if v.IsNumeric() {
			z.NumOrd++
			f := v.AsFloat()
			if math.IsNaN(f) {
				z.NaNs++
				continue
			}
			if !z.FHas || f < z.FMin {
				z.FMin = f
			}
			if !z.FHas || f > z.FMax {
				z.FMax = f
			}
			z.FHas = true
		}
	}
	return z
}

// colMeta is one column's footer entry.
type colMeta struct {
	name string
	kind relation.Kind // advisory declared kind (cells carry their own)
	off  int64         // absolute file offset of the colcodec chunk
	size int64
	zone ZoneMap
}

// footer is the parsed tail of a segment file.
type footer struct {
	rows int
	cols []colMeta
}

// schema reconstructs the stored schema from the footer.
func (f *footer) schema() relation.Schema {
	cols := make([]relation.Column, len(f.cols))
	for i, c := range f.cols {
		cols[i] = relation.Column{Name: c.name, Kind: c.kind}
	}
	return relation.Schema{Cols: cols}
}

// col returns the named column's footer entry, or nil.
func (f *footer) col(name string) *colMeta {
	for i := range f.cols {
		if f.cols[i].name == name {
			return &f.cols[i]
		}
	}
	return nil
}

const (
	zoneFlagF = 0x01
	zoneFlagS = 0x02
)

// encodeFooter serializes the footer body (without the trailer):
//
//	version:uint8 nrows:uvarint ncols:uvarint
//	per column:
//	  nameLen:uvarint name kind:uint8 off:uvarint size:uvarint
//	  nulls numKind numOrd nans strs  (five uvarints)
//	  zoneFlags:uint8
//	  [fmin:float64 fmax:float64]      when zoneFlags&zoneFlagF
//	  [sminLen:uvarint smin smaxLen:uvarint smax]  when zoneFlags&zoneFlagS
func encodeFooter(f *footer) []byte {
	w := newByteWriter()
	w.byte(formatVersion)
	w.uvarint(uint64(f.rows))
	w.uvarint(uint64(len(f.cols)))
	for _, c := range f.cols {
		w.str(c.name)
		w.byte(byte(c.kind))
		w.uvarint(uint64(c.off))
		w.uvarint(uint64(c.size))
		z := c.zone
		w.uvarint(uint64(z.Nulls))
		w.uvarint(uint64(z.NumKind))
		w.uvarint(uint64(z.NumOrd))
		w.uvarint(uint64(z.NaNs))
		w.uvarint(uint64(z.Strs))
		var flags byte
		if z.FHas {
			flags |= zoneFlagF
		}
		if z.SHas {
			flags |= zoneFlagS
		}
		w.byte(flags)
		if z.FHas {
			w.float(z.FMin)
			w.float(z.FMax)
		}
		if z.SHas {
			w.str(z.SMin)
			w.str(z.SMax)
		}
	}
	return w.bytes()
}

// parseFooter decodes and validates a footer body. dataEnd is the file
// offset where the footer begins — chunks must live entirely inside
// [headerLen, dataEnd). Every structural claim is checked here so
// readers past this point can trust offsets, sizes and zone maps.
func parseFooter(data []byte, dataEnd int64) (*footer, error) {
	rd := &reader{buf: data}
	ver, err := rd.byte()
	if err != nil {
		return nil, fmt.Errorf("segstore: footer version: %w", err)
	}
	if ver != formatVersion {
		return nil, fmt.Errorf("segstore: unsupported footer version %d", ver)
	}
	nrows, err := rd.uvarint()
	if err != nil {
		return nil, fmt.Errorf("segstore: footer rows: %w", err)
	}
	if nrows > maxRows {
		return nil, fmt.Errorf("segstore: footer claims %d rows, cap %d", nrows, maxRows)
	}
	ncols, err := rd.uvarint()
	if err != nil {
		return nil, fmt.Errorf("segstore: footer cols: %w", err)
	}
	if ncols > maxCols {
		return nil, fmt.Errorf("segstore: footer claims %d columns, cap %d", ncols, maxCols)
	}
	f := &footer{rows: int(nrows), cols: make([]colMeta, 0, ncols)}
	seen := make(map[string]bool, ncols)
	prevEnd := int64(headerLen)
	nonNullMax := int(nrows)
	for i := 0; i < int(ncols); i++ {
		c, err := parseColMeta(rd, nonNullMax)
		if err != nil {
			return nil, fmt.Errorf("segstore: footer column %d: %w", i, err)
		}
		if seen[c.name] {
			return nil, fmt.Errorf("segstore: footer column %d: duplicate name %q", i, c.name)
		}
		seen[c.name] = true
		// Chunks must tile the data region in order: ascending,
		// non-overlapping, inside [headerLen, dataEnd).
		if c.off < prevEnd || c.size < 0 || c.off+c.size > dataEnd || c.off+c.size < c.off {
			return nil, fmt.Errorf("segstore: footer column %d (%q): chunk [%d,+%d) outside [%d,%d)",
				i, c.name, c.off, c.size, prevEnd, dataEnd)
		}
		prevEnd = c.off + c.size
		f.cols = append(f.cols, c)
	}
	if len(rd.rest()) != 0 {
		return nil, fmt.Errorf("segstore: footer has %d trailing bytes", len(rd.rest()))
	}
	return f, nil
}

// parseColMeta reads one column entry and validates its zone map's
// internal consistency against the segment row count.
func parseColMeta(rd *reader, nrows int) (colMeta, error) {
	var c colMeta
	name, err := rd.str(maxNameLen)
	if err != nil {
		return c, fmt.Errorf("name: %w", err)
	}
	if name == "" {
		return c, fmt.Errorf("empty name")
	}
	c.name = name
	k, err := rd.byte()
	if err != nil {
		return c, fmt.Errorf("kind: %w", err)
	}
	if k > byte(relation.KindBytes) {
		return c, fmt.Errorf("bad kind %d", k)
	}
	c.kind = relation.Kind(k)
	off, err := rd.uvarint()
	if err != nil {
		return c, fmt.Errorf("offset: %w", err)
	}
	size, err := rd.uvarint()
	if err != nil {
		return c, fmt.Errorf("size: %w", err)
	}
	if off > math.MaxInt64 || size > math.MaxInt64 {
		return c, fmt.Errorf("chunk bounds overflow")
	}
	c.off, c.size = int64(off), int64(size)

	z := &c.zone
	for _, field := range []struct {
		name string
		dst  *int
	}{
		{"nulls", &z.Nulls}, {"numkind", &z.NumKind}, {"numord", &z.NumOrd},
		{"nans", &z.NaNs}, {"strs", &z.Strs},
	} {
		u, err := rd.uvarint()
		if err != nil {
			return c, fmt.Errorf("zone %s: %w", field.name, err)
		}
		if u > uint64(nrows) {
			return c, fmt.Errorf("zone %s %d exceeds %d rows", field.name, u, nrows)
		}
		*field.dst = int(u)
	}
	nonNull := nrows - z.Nulls
	// The counts must describe one consistent partition of the cells:
	// numeric-ordered cells are the int/float kinds plus numeric
	// strings, NaNs are a subset of the ordered cells, and kinds can't
	// exceed the non-null population.
	if z.NumKind > z.NumOrd || z.NaNs > z.NumOrd || z.NumOrd > nonNull ||
		z.Strs > nonNull || z.NumKind+z.Strs > nonNull || z.NumOrd-z.NumKind > z.Strs {
		return c, fmt.Errorf("inconsistent zone counts (nulls=%d numkind=%d numord=%d nans=%d strs=%d of %d rows)",
			z.Nulls, z.NumKind, z.NumOrd, z.NaNs, z.Strs, nrows)
	}
	flags, err := rd.byte()
	if err != nil {
		return c, fmt.Errorf("zone flags: %w", err)
	}
	if flags&^(zoneFlagF|zoneFlagS) != 0 {
		return c, fmt.Errorf("bad zone flags %#x", flags)
	}
	z.FHas = flags&zoneFlagF != 0
	z.SHas = flags&zoneFlagS != 0
	// The flags are implied by the counts; a mismatch (e.g. float
	// bounds for a column with no orderable numeric cell) is corruption.
	if z.FHas != (z.NumOrd > z.NaNs) {
		return c, fmt.Errorf("float bounds flag %v contradicts counts (numord=%d nans=%d)", z.FHas, z.NumOrd, z.NaNs)
	}
	if z.SHas != (z.Strs > 0) {
		return c, fmt.Errorf("string bounds flag %v contradicts count strs=%d", z.SHas, z.Strs)
	}
	if z.FHas {
		if z.FMin, err = rd.float(); err != nil {
			return c, fmt.Errorf("fmin: %w", err)
		}
		if z.FMax, err = rd.float(); err != nil {
			return c, fmt.Errorf("fmax: %w", err)
		}
		// min > max (or NaN bounds) would license unsound pruning — a
		// crafted footer of exactly this shape is in the fuzz corpus.
		if math.IsNaN(z.FMin) || math.IsNaN(z.FMax) || z.FMin > z.FMax {
			return c, fmt.Errorf("bad float bounds [%g, %g]", z.FMin, z.FMax)
		}
	}
	if z.SHas {
		if z.SMin, err = rd.str(maxZoneStrLen); err != nil {
			return c, fmt.Errorf("smin: %w", err)
		}
		if z.SMax, err = rd.str(maxZoneStrLen); err != nil {
			return c, fmt.Errorf("smax: %w", err)
		}
		if z.SMin > z.SMax {
			return c, fmt.Errorf("bad string bounds [%q, %q]", z.SMin, z.SMax)
		}
	}
	return c, nil
}

// ------------------------------------------------------------- reading

// Segment is an open segment file: footer parsed and validated, chunks
// read lazily per column. The zero decode guarantee lives here — only
// ReadColumns touches chunk bytes, and only for the columns asked.
type Segment struct {
	path string
	r    io.ReaderAt
	f    *os.File // non-nil when opened from a path (owned; Close closes it)
	mm   []byte   // non-nil when the file is mmapped (Close unmaps)
	foot *footer
}

// OpenSegment opens a segment file and validates its header, trailer
// and footer (chunk bytes stay untouched). Where the platform supports
// it (see mmap_unix.go) the file is mapped into memory instead of read
// with per-chunk pread copies; a failed map silently falls back to file
// reads, and the CRC/footer validation is identical either way.
func OpenSegment(path string) (*Segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	g, err := OpenSegmentReaderAt(f, st.Size())
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	g.path, g.f = path, f
	if mm, err := mmapFile(f, st.Size()); err == nil {
		g.mm = mm
		mSegmentsMmapped.Inc()
	}
	return g, nil
}

// OpenSegmentReaderAt opens a segment over any ReaderAt (the fuzz
// harness feeds adversarial byte slices through here). The caller
// retains ownership of r.
func OpenSegmentReaderAt(r io.ReaderAt, size int64) (*Segment, error) {
	if size < headerLen+trailerLen {
		return nil, fmt.Errorf("segstore: %d bytes is too short for a segment", size)
	}
	var hdr [headerLen]byte
	if _, err := r.ReadAt(hdr[:], 0); err != nil {
		return nil, fmt.Errorf("segstore: header: %w", err)
	}
	if [4]byte(hdr[:4]) != headerMagic {
		return nil, fmt.Errorf("segstore: bad magic %q", hdr[:4])
	}
	if hdr[4] != formatVersion {
		return nil, fmt.Errorf("segstore: unsupported version %d", hdr[4])
	}
	var tr [trailerLen]byte
	if _, err := r.ReadAt(tr[:], size-trailerLen); err != nil {
		return nil, fmt.Errorf("segstore: trailer: %w", err)
	}
	if [4]byte(tr[8:12]) != trailerMagic {
		return nil, fmt.Errorf("segstore: bad trailer magic %q (truncated segment?)", tr[8:12])
	}
	flen := int64(le32(tr[0:4]))
	if flen == 0 || flen > maxFooterLen || flen > size-headerLen-trailerLen {
		return nil, fmt.Errorf("segstore: implausible footer length %d in %d-byte file", flen, size)
	}
	fb := make([]byte, flen)
	footOff := size - trailerLen - flen
	if _, err := r.ReadAt(fb, footOff); err != nil {
		return nil, fmt.Errorf("segstore: footer: %w", err)
	}
	if got, want := crc32.ChecksumIEEE(fb), le32(tr[4:8]); got != want {
		return nil, fmt.Errorf("segstore: footer CRC mismatch (got %08x, want %08x)", got, want)
	}
	foot, err := parseFooter(fb, footOff)
	if err != nil {
		return nil, err
	}
	return &Segment{r: r, foot: foot}, nil
}

// Close releases the mapping and the underlying file (no-op for
// ReaderAt-backed segments).
func (g *Segment) Close() error {
	if g.mm != nil {
		_ = munmapFile(g.mm)
		g.mm = nil
	}
	if g.f != nil {
		return g.f.Close()
	}
	return nil
}

// sliceAt returns the chunk bytes [off, off+size): a zero-copy window
// into the mapping when the segment is mmapped, a pread copy otherwise.
// The footer parser already proved the range lies inside the data
// region. Handing the mapping out directly is safe because colcodec's
// decoders never retain their input: strings and byte cells are copied
// out during decode, both from the chunk itself and from the pooled
// buffer a compressed chunk inflates into, so no decoded Value outlives
// the mapping's Close or the buffer's reuse by the next decode.
func (g *Segment) sliceAt(off, size int64) ([]byte, error) {
	if g.mm != nil && off >= 0 && size >= 0 && off+size <= int64(len(g.mm)) {
		return g.mm[off : off+size : off+size], nil
	}
	chunk := make([]byte, size)
	if _, err := g.r.ReadAt(chunk, off); err != nil {
		return nil, err
	}
	return chunk, nil
}

// Rows returns the segment's row count (from the footer, no decode).
func (g *Segment) Rows() int { return g.foot.rows }

// Schema returns the stored schema.
func (g *Segment) Schema() relation.Schema { return g.foot.schema() }

// Zone returns the named column's zone map (zero value if absent).
func (g *Segment) Zone(name string) (ZoneMap, bool) {
	if c := g.foot.col(name); c != nil {
		return c.zone, true
	}
	return ZoneMap{}, false
}

// ReadColumns decodes the named columns (nil = all, in stored order)
// and assembles them into rows. Only the requested chunks are read from
// the file; each chunk must decode to exactly the footer's row count.
func (g *Segment) ReadColumns(cols []string) (relation.Schema, []relation.Row, error) {
	metas := make([]*colMeta, 0, len(cols))
	if cols == nil {
		for i := range g.foot.cols {
			metas = append(metas, &g.foot.cols[i])
		}
	} else {
		for _, name := range cols {
			c := g.foot.col(name)
			if c == nil {
				return relation.Schema{}, nil, fmt.Errorf("segstore: %s: no column %q", g.path, name)
			}
			metas = append(metas, c)
		}
	}
	n, w := g.foot.rows, len(metas)
	rows := make([]relation.Row, n)
	cells := make([]relation.Value, n*w)
	for i := range rows {
		rows[i] = cells[i*w : (i+1)*w : (i+1)*w]
	}
	outCols := make([]relation.Column, w)
	var decoded int64
	for mi, c := range metas {
		outCols[mi] = relation.Column{Name: c.name, Kind: c.kind}
		chunk, err := g.sliceAt(c.off, c.size)
		if err != nil {
			return relation.Schema{}, nil, fmt.Errorf("segstore: %s: column %q chunk: %w", g.path, c.name, err)
		}
		decoded += c.size
		// Each chunk decodes straight into its column of the shared rows;
		// DecodeInto rejects a chunk whose row count is not the footer's.
		if err := colcodec.DecodeInto(relation.NewSchema(outCols[mi]), chunk, rows, mi); err != nil {
			return relation.Schema{}, nil, fmt.Errorf("segstore: %s: column %q: %w", g.path, c.name, err)
		}
	}
	mSegmentsScanned.Inc()
	mBytesDecoded.Add(decoded)
	return relation.Schema{Cols: outCols}, rows, nil
}

// ReadSegmentRows opens path and decodes the named columns (nil = all):
// the one-call read used by cluster executors running segment-scheduled
// tasks.
func ReadSegmentRows(path string, cols []string) (relation.Schema, []relation.Row, error) {
	g, err := OpenSegment(path)
	if err != nil {
		return relation.Schema{}, nil, err
	}
	defer g.Close()
	return g.ReadColumns(cols)
}

// ------------------------------------------------------------- writing

// encodeSegment lays out a whole segment file image for rows under
// schema s. Split into parts so the seal path can place crash hooks
// between chunk, footer and sync stages.
type segmentImage struct {
	header []byte
	chunks [][]byte
	tail   []byte // footer + trailer
}

func encodeSegment(s relation.Schema, rows []relation.Row, opts colcodec.Options) (*segmentImage, error) {
	img := &segmentImage{header: append(append([]byte{}, headerMagic[:]...), formatVersion)}
	foot := &footer{rows: len(rows), cols: make([]colMeta, s.Len())}
	off := int64(headerLen)
	for ri, r := range rows {
		if len(r) != s.Len() {
			return nil, fmt.Errorf("segstore: row %d has %d cells, schema has %d", ri, len(r), s.Len())
		}
	}
	for ci, col := range s.Cols {
		chunk, err := colcodec.EncodeColumn(rows, ci, opts)
		if err != nil {
			return nil, fmt.Errorf("segstore: column %q: %w", col.Name, err)
		}
		img.chunks = append(img.chunks, chunk)
		foot.cols[ci] = colMeta{
			name: col.Name,
			kind: col.Kind,
			off:  off,
			size: int64(len(chunk)),
			zone: zoneOf(rows, ci),
		}
		off += int64(len(chunk))
	}
	fb := encodeFooter(foot)
	tail := make([]byte, 0, len(fb)+trailerLen)
	tail = append(tail, fb...)
	tail = appendLE32(tail, uint32(len(fb)))
	tail = appendLE32(tail, crc32.ChecksumIEEE(fb))
	tail = append(tail, trailerMagic[:]...)
	img.tail = tail
	return img, nil
}

// ------------------------------------------------------------- byte helpers

func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func appendLE32(b []byte, u uint32) []byte {
	return append(b, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
}

// byteWriter builds the footer body.
type byteWriter struct{ b []byte }

func newByteWriter() *byteWriter { return &byteWriter{} }

func (w *byteWriter) byte(v byte) { w.b = append(w.b, v) }

func (w *byteWriter) uvarint(u uint64) {
	for u >= 0x80 {
		w.b = append(w.b, byte(u)|0x80)
		u >>= 7
	}
	w.b = append(w.b, byte(u))
}

func (w *byteWriter) float(f float64) {
	u := math.Float64bits(f)
	w.b = append(w.b, byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
		byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
}

func (w *byteWriter) str(s string) {
	w.uvarint(uint64(len(s)))
	w.b = append(w.b, s...)
}

func (w *byteWriter) bytes() []byte { return w.b }

// reader is a bounds-checked cursor over the footer body.
type reader struct {
	buf []byte
	off int
}

func (r *reader) rest() []byte { return r.buf[r.off:] }

func (r *reader) byte() (byte, error) {
	if r.off >= len(r.buf) {
		return 0, io.ErrUnexpectedEOF
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

func (r *reader) uvarint() (uint64, error) {
	var u uint64
	for shift := 0; shift < 64; shift += 7 {
		b, err := r.byte()
		if err != nil {
			return 0, err
		}
		u |= uint64(b&0x7F) << shift
		if b < 0x80 {
			return u, nil
		}
	}
	return 0, fmt.Errorf("uvarint overflow")
}

func (r *reader) float() (float64, error) {
	if r.off+8 > len(r.buf) {
		return 0, io.ErrUnexpectedEOF
	}
	b := r.buf[r.off : r.off+8]
	r.off += 8
	u := uint64(le32(b[:4])) | uint64(le32(b[4:]))<<32
	return math.Float64frombits(u), nil
}

func (r *reader) str(maxLen int) (string, error) {
	l, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if l > uint64(maxLen) {
		return "", fmt.Errorf("string length %d exceeds cap %d", l, maxLen)
	}
	if r.off+int(l) > len(r.buf) {
		return "", io.ErrUnexpectedEOF
	}
	s := string(r.buf[r.off : r.off+int(l)])
	r.off += int(l)
	return s, nil
}

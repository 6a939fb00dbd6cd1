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
//	chunks   one chunk per column, contiguous, so a reader can fetch any
//	         column with one ReadAt of [off, off+size) and nothing else.
//	         v1/v2: the column encoded standalone (a single-column
//	         colcodec stream). v3: a paged chunk (colcodec page.go) —
//	         an optional dictionary, then one payload per page, every
//	         column cut at the same rows (page.go)
//	footer   see encodeFooter; carries the schema, each chunk's
//	         [off, size), each column's zone map, and in v3 each page's
//	         row count, byte range per column and zone map per column
//	trailer  footerLen:uint32 footerCRC:uint32 "IVS1"
//
// The fixed-size trailer makes lazy access possible: a reader seeks to
// EOF-12, validates the CRC'd footer, and from then on touches only the
// chunk and page byte ranges it needs. Unprojected columns, and pages
// outside the selected row ranges, are never read, let alone decoded.
//
// The footer parser is hardened to the same standard as colcodec's
// decoder (it shares its row cap): every count, length and offset is
// bounds-checked against the file size, chunks must be strictly
// ascending and non-overlapping, and zone maps must be internally
// consistent (min <= max, counts that add up); v3 pages must tile each
// chunk in order, their rows must sum to the segment's, and no page
// zone may be wider than its segment zone — a corrupt or
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
	"ivnt/internal/engine"
	"ivnt/internal/relation"
)

const (
	// formatVersion is the version written: v2 added the zone-map kind
	// bits (zoneFlagFloats, zoneFlagInts) to the per-column flags byte,
	// which costs no bytes; v3 pages every chunk and adds the page index
	// to the footer (page.go). Readers accept every version from
	// minFormatVersion up; a v1 footer never records the kind bits, so
	// its segments are never answered from footers (aggmeta.go), and a
	// v1/v2 segment reads as one page.
	formatVersion    = 3
	minFormatVersion = 1

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
// cells lexicographically (valid when SHas). FloatsOnly and IntsOnly
// say which kinds NumKind counts: FloatsOnly when NumKind > 0 and every
// one of those cells is a float, IntsOnly when every one is an int. A
// column with both kinds, or none, sets neither; so does every v1
// footer, which did not record them.
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

	FloatsOnly, IntsOnly bool
}

// colMeta is one column's footer entry.
type colMeta struct {
	name string
	kind relation.Kind // advisory declared kind (cells carry their own)
	off  int64         // absolute file offset of the colcodec chunk
	size int64
	dict int64 // v3: bytes of the dictionary payload at the chunk's head (0: none)
	zone ZoneMap
}

// pageMeta is one v3 page: rows [start, start+rows) of the segment.
type pageMeta struct {
	start, rows int
	cols        []pageCol // per column, in footer column order
}

// pageCol is one column's slice of a page: its payload's absolute file
// range and its zone map.
type pageCol struct {
	off, size int64
	zone      ZoneMap
}

// footer is the parsed tail of a segment file.
type footer struct {
	version byte
	rows    int
	cols    []colMeta
	pages   []pageMeta // v3 only; a v1/v2 segment reads as one page
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
	if i := f.colIndex(name); i >= 0 {
		return &f.cols[i]
	}
	return nil
}

// colIndex returns the named column's position, or -1.
func (f *footer) colIndex(name string) int {
	for i := range f.cols {
		if f.cols[i].name == name {
			return i
		}
	}
	return -1
}

// numPages returns the pages a full read decodes: a v1/v2 segment with
// rows is one page.
func (f *footer) numPages() int {
	if f.version < 3 && f.rows > 0 {
		return 1
	}
	return len(f.pages)
}

const (
	zoneFlagF      = 0x01
	zoneFlagS      = 0x02
	zoneFlagFloats = 0x04 // v2: ZoneMap.FloatsOnly
	zoneFlagInts   = 0x08 // v2: ZoneMap.IntsOnly
	// zoneFlagSeg (v3 page zones only): the page's float and string
	// bounds are the segment zone's, bit for bit, and are not repeated.
	zoneFlagSeg = 0x10
)

// encodeFooter serializes the footer body (without the trailer):
//
//	version:uint8 nrows:uvarint ncols:uvarint
//	per column:
//	  nameLen:uvarint name kind:uint8 off:uvarint size:uvarint
//	  zone
//	  [dictSize:uvarint]                          v3
//	[npages:uvarint                               v3
//	 per page, when npages > 1: rows:uvarint
//	   per column: off:uvarint size:uvarint zone  (off relative to the
//	               column's chunk; the pages tile the chunk after its
//	               dictionary, in order)]
//
// A one-page segment records no page entry: its page is the whole
// chunk after the dictionary, and its zones are the segment zones.
//
// where a zone is
//
//	nulls numKind numOrd nans strs  (five uvarints)
//	zoneFlags:uint8  (zoneFlagF|zoneFlagS|zoneFlagFloats|zoneFlagInts|zoneFlagSeg)
//	[fmin:float64 fmax:float64]      when zoneFlags&zoneFlagF, unless zoneFlagSeg
//	[sminLen:uvarint smin smaxLen:uvarint smax]  when zoneFlags&zoneFlagS, unless zoneFlagSeg
func encodeFooter(f *footer) []byte {
	w := newByteWriter()
	w.byte(f.version)
	w.uvarint(uint64(f.rows))
	w.uvarint(uint64(len(f.cols)))
	for _, c := range f.cols {
		w.str(c.name)
		w.byte(byte(c.kind))
		w.uvarint(uint64(c.off))
		w.uvarint(uint64(c.size))
		w.zone(c.zone, nil)
		if f.version >= 3 {
			w.uvarint(uint64(c.dict))
		}
	}
	if f.version >= 3 {
		w.uvarint(uint64(len(f.pages)))
		if len(f.pages) == 1 {
			return w.bytes()
		}
		for _, pg := range f.pages {
			w.uvarint(uint64(pg.rows))
			for ci, pc := range pg.cols {
				w.uvarint(uint64(pc.off - f.cols[ci].off))
				w.uvarint(uint64(pc.size))
				w.zone(pc.zone, &f.cols[ci].zone)
			}
		}
	}
	return w.bytes()
}

// zone writes one zone map; seg, when non-nil, is the segment zone a
// page zone may point back to with zoneFlagSeg.
func (w *byteWriter) zone(z ZoneMap, seg *ZoneMap) {
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
	if z.FloatsOnly {
		flags |= zoneFlagFloats
	}
	if z.IntsOnly {
		flags |= zoneFlagInts
	}
	if seg != nil && (z.FHas || z.SHas) && sameBounds(z, *seg) {
		w.byte(flags | zoneFlagSeg)
		return
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

// sameBounds reports whether page zone z's bounds are seg's, bit for
// bit, wherever z has bounds.
func sameBounds(z, seg ZoneMap) bool {
	if z.FHas && (!seg.FHas || math.Float64bits(z.FMin) != math.Float64bits(seg.FMin) ||
		math.Float64bits(z.FMax) != math.Float64bits(seg.FMax)) {
		return false
	}
	if z.SHas && (!seg.SHas || z.SMin != seg.SMin || z.SMax != seg.SMax) {
		return false
	}
	return true
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
	if ver < minFormatVersion || ver > formatVersion {
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
	f := &footer{version: ver, rows: int(nrows), cols: make([]colMeta, 0, ncols)}
	seen := make(map[string]bool, ncols)
	prevEnd := int64(headerLen)
	for i := 0; i < int(ncols); i++ {
		c, err := parseColMeta(rd, int(nrows), ver)
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
		if c.dict > c.size {
			return nil, fmt.Errorf("segstore: footer column %d (%q): dictionary of %d bytes in a %d-byte chunk", i, c.name, c.dict, c.size)
		}
		prevEnd = c.off + c.size
		f.cols = append(f.cols, c)
	}
	if ver >= 3 {
		if err := parsePages(rd, f); err != nil {
			return nil, fmt.Errorf("segstore: footer %w", err)
		}
	}
	if len(rd.rest()) != 0 {
		return nil, fmt.Errorf("segstore: footer has %d trailing bytes", len(rd.rest()))
	}
	return f, nil
}

// parsePages reads a v3 page index into f and validates it against the
// column entries: page rows are positive and sum to the segment's rows,
// each column's pages tile its chunk after the dictionary in order (no
// gap, overlap or reordering), page zones are consistent with their own
// rows, their counts sum to the segment zone's, and none is wider than
// the segment zone.
func parsePages(rd *reader, f *footer) error {
	npages, err := rd.uvarint()
	if err != nil {
		return fmt.Errorf("pages: %w", err)
	}
	if npages > uint64(f.rows) || (f.rows > 0 && npages == 0) {
		return fmt.Errorf("claims %d pages for %d rows", npages, f.rows)
	}
	ncols := len(f.cols)
	// Each page entry takes at least minPageEntry bytes, so a count the
	// remaining footer cannot hold is rejected before it sizes an
	// allocation.
	if minPageEntry := uint64(1 + 8*ncols); npages > 1 && npages > uint64(len(rd.rest()))/minPageEntry {
		return fmt.Errorf("claims %d pages, %d footer bytes left hold at most %d",
			npages, len(rd.rest()), uint64(len(rd.rest()))/minPageEntry)
	}
	f.pages = make([]pageMeta, npages)
	cells := make([]pageCol, int(npages)*ncols)
	if npages == 1 {
		pg := pageMeta{rows: f.rows, cols: cells}
		for ci, c := range f.cols {
			if c.size == c.dict {
				return fmt.Errorf("column %q: no page bytes after its dictionary", c.name)
			}
			pg.cols[ci] = pageCol{off: c.off + c.dict, size: c.size - c.dict, zone: c.zone}
		}
		f.pages[0] = pg
		return nil
	}
	ends := make([]int64, ncols) // next page's expected offset, per column
	sums := make([]ZoneMap, ncols)
	for ci, c := range f.cols {
		ends[ci] = c.off + c.dict
	}
	start := 0
	for p := range f.pages {
		rows, err := rd.uvarint()
		if err != nil {
			return fmt.Errorf("page %d rows: %w", p, err)
		}
		if rows == 0 || rows > uint64(f.rows-start) {
			return fmt.Errorf("page %d claims %d rows, %d of %d left", p, rows, f.rows-start, f.rows)
		}
		pg := pageMeta{start: start, rows: int(rows), cols: cells[p*ncols : (p+1)*ncols : (p+1)*ncols]}
		start += int(rows)
		for ci := range f.cols {
			c := &f.cols[ci]
			off, err := rd.uvarint()
			if err != nil {
				return fmt.Errorf("page %d column %q offset: %w", p, c.name, err)
			}
			size, err := rd.uvarint()
			if err != nil {
				return fmt.Errorf("page %d column %q size: %w", p, c.name, err)
			}
			if off > uint64(c.size) || size > uint64(c.size)-off || size == 0 {
				return fmt.Errorf("page %d column %q: range [%d,+%d) outside its %d-byte chunk", p, c.name, off, size, c.size)
			}
			pc := &pg.cols[ci]
			pc.off, pc.size = c.off+int64(off), int64(size)
			if pc.off != ends[ci] {
				return fmt.Errorf("page %d column %q: range starts at %d, previous page ends at %d", p, c.name, pc.off, ends[ci])
			}
			ends[ci] = pc.off + pc.size
			if pc.zone, err = parseZone(rd, pg.rows, f.version, &c.zone); err != nil {
				return fmt.Errorf("page %d column %q: %w", p, c.name, err)
			}
			if err := zoneWithin(pc.zone, c.zone); err != nil {
				return fmt.Errorf("page %d column %q: %w", p, c.name, err)
			}
			mergeZone(&sums[ci], pc.zone, p == 0)
		}
		f.pages[p] = pg
	}
	if start != f.rows {
		return fmt.Errorf("pages hold %d rows, segment has %d", start, f.rows)
	}
	for ci, c := range f.cols {
		if ends[ci] != c.off+c.size {
			return fmt.Errorf("column %q: pages end at %d, chunk at %d", c.name, ends[ci], c.off+c.size)
		}
		z, s := c.zone, sums[ci]
		if z.Nulls != s.Nulls || z.NumKind != s.NumKind || z.NumOrd != s.NumOrd || z.NaNs != s.NaNs || z.Strs != s.Strs {
			return fmt.Errorf("column %q: page zone counts do not sum to the segment zone's", c.name)
		}
	}
	return nil
}

// zoneWithin rejects a page zone wider than its segment zone: bounds
// the segment lacks, or outside the segment's, or kinds the segment
// zone rules out. Pruning trusts the narrower zone, so a wider one is
// corruption, not slack.
func zoneWithin(p, seg ZoneMap) error {
	if p.FHas && (!seg.FHas || p.FMin < seg.FMin || p.FMax > seg.FMax) {
		return fmt.Errorf("page float bounds [%g, %g] outside segment zone", p.FMin, p.FMax)
	}
	if p.SHas && (!seg.SHas || p.SMin < seg.SMin || p.SMax > seg.SMax) {
		return fmt.Errorf("page string bounds [%q, %q] outside segment zone", p.SMin, p.SMax)
	}
	if p.NumKind > 0 && ((seg.FloatsOnly && !p.FloatsOnly) || (seg.IntsOnly && !p.IntsOnly)) {
		return fmt.Errorf("page kind flags contradict the segment zone")
	}
	return nil
}

// parseColMeta reads one column entry of a version-ver footer and
// validates its zone map's internal consistency against the segment row
// count.
func parseColMeta(rd *reader, nrows int, ver byte) (colMeta, error) {
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
	if c.zone, err = parseZone(rd, nrows, ver, nil); err != nil {
		return c, err
	}
	if ver >= 3 {
		dict, err := rd.uvarint()
		if err != nil {
			return c, fmt.Errorf("dictionary size: %w", err)
		}
		if dict > math.MaxInt64 {
			return c, fmt.Errorf("dictionary size overflow")
		}
		c.dict = int64(dict)
	}
	return c, nil
}

// parseZone reads one zone map over nrows rows and validates its
// internal consistency. seg is the segment zone when reading a v3 page
// zone, which may take its bounds from it (zoneFlagSeg); nil otherwise.
func parseZone(rd *reader, nrows int, ver byte, seg *ZoneMap) (ZoneMap, error) {
	var z ZoneMap
	for _, field := range []struct {
		name string
		dst  *int
	}{
		{"nulls", &z.Nulls}, {"numkind", &z.NumKind}, {"numord", &z.NumOrd},
		{"nans", &z.NaNs}, {"strs", &z.Strs},
	} {
		u, err := rd.uvarint()
		if err != nil {
			return z, fmt.Errorf("zone %s: %w", field.name, err)
		}
		if u > uint64(nrows) {
			return z, fmt.Errorf("zone %s %d exceeds %d rows", field.name, u, nrows)
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
		return z, fmt.Errorf("inconsistent zone counts (nulls=%d numkind=%d numord=%d nans=%d strs=%d of %d rows)",
			z.Nulls, z.NumKind, z.NumOrd, z.NaNs, z.Strs, nrows)
	}
	flags, err := rd.byte()
	if err != nil {
		return z, fmt.Errorf("zone flags: %w", err)
	}
	known := byte(zoneFlagF | zoneFlagS | zoneFlagFloats | zoneFlagInts)
	if ver < 2 {
		known = zoneFlagF | zoneFlagS
	}
	if seg != nil {
		known |= zoneFlagSeg
	}
	if flags&^known != 0 {
		return z, fmt.Errorf("bad zone flags %#x for footer version %d", flags, ver)
	}
	z.FHas = flags&zoneFlagF != 0
	z.SHas = flags&zoneFlagS != 0
	z.FloatsOnly = flags&zoneFlagFloats != 0
	z.IntsOnly = flags&zoneFlagInts != 0
	// A kind bit describes the int/float cells, so it needs some, and a
	// column cannot be all floats and all ints at once. Footer answers
	// (aggmeta.go) turn these bits into the kind of a min/max cell.
	if (z.FloatsOnly || z.IntsOnly) && z.NumKind == 0 {
		return z, fmt.Errorf("zone kind flags %#x without int/float cells", flags)
	}
	if z.FloatsOnly && z.IntsOnly {
		return z, fmt.Errorf("zone kind flags %#x claim both all-float and all-int", flags)
	}
	// The flags are implied by the counts; a mismatch (e.g. float
	// bounds for a column with no orderable numeric cell) is corruption.
	if z.FHas != (z.NumOrd > z.NaNs) {
		return z, fmt.Errorf("float bounds flag %v contradicts counts (numord=%d nans=%d)", z.FHas, z.NumOrd, z.NaNs)
	}
	if z.SHas != (z.Strs > 0) {
		return z, fmt.Errorf("string bounds flag %v contradicts count strs=%d", z.SHas, z.Strs)
	}
	if flags&zoneFlagSeg != 0 {
		if (z.FHas && !seg.FHas) || (z.SHas && !seg.SHas) || !(z.FHas || z.SHas) {
			return z, fmt.Errorf("zone flags %#x borrow bounds the segment zone lacks", flags)
		}
		z.FMin, z.FMax, z.SMin, z.SMax = seg.FMin, seg.FMax, seg.SMin, seg.SMax
		if !z.FHas {
			z.FMin, z.FMax = 0, 0
		}
		if !z.SHas {
			z.SMin, z.SMax = "", ""
		}
		return z, nil
	}
	if z.FHas {
		if z.FMin, err = rd.float(); err != nil {
			return z, fmt.Errorf("fmin: %w", err)
		}
		if z.FMax, err = rd.float(); err != nil {
			return z, fmt.Errorf("fmax: %w", err)
		}
		// min > max (or NaN bounds) would license unsound pruning — a
		// crafted footer of exactly this shape is in the fuzz corpus.
		if math.IsNaN(z.FMin) || math.IsNaN(z.FMax) || z.FMin > z.FMax {
			return z, fmt.Errorf("bad float bounds [%g, %g]", z.FMin, z.FMax)
		}
	}
	if z.SHas {
		if z.SMin, err = rd.str(maxZoneStrLen); err != nil {
			return z, fmt.Errorf("smin: %w", err)
		}
		if z.SMax, err = rd.str(maxZoneStrLen); err != nil {
			return z, fmt.Errorf("smax: %w", err)
		}
		if z.SMin > z.SMax {
			return z, fmt.Errorf("bad string bounds [%q, %q]", z.SMin, z.SMax)
		}
	}
	return z, nil
}

// ------------------------------------------------------------- reading

// Segment is an open segment file: footer parsed and validated, chunks
// read lazily per column. The zero decode guarantee lives here — only
// ReadRanges touches chunk bytes, and only for the columns and pages
// asked. A segment read through its store (Store.Scan) takes its footer
// and dictionaries from the store's cache entry instead of the file;
// the decode path is the same.
type Segment struct {
	path  string
	r     io.ReaderAt
	f     *os.File  // non-nil when opened from a path (owned; Close closes it)
	mm    []byte    // non-nil when the file is mmapped (Close unmaps)
	foot  *footer   // parsed here, or the store's cached footer
	entry *segEntry // non-nil when read through a store's cache (cache.go)
}

// OpenSegment opens a segment file and validates its header, trailer
// and footer (chunk bytes stay untouched). Where the platform supports
// it (see mmap_unix.go) the file is mapped into memory instead of read
// with per-chunk pread copies; a failed map silently falls back to file
// reads, and the CRC/footer validation is identical either way.
func OpenSegment(path string) (*Segment, error) {
	g, size, err := openSegmentFile(path)
	if err != nil {
		return nil, err
	}
	if mm, err := mmapFile(g.f, size); err == nil {
		g.mm = mm
		mSegmentsMmapped.Inc()
	}
	return g, nil
}

// openSegmentFile opens path and validates its header, trailer and
// footer, reading with pread; it also returns the file size.
func openSegmentFile(path string) (*Segment, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	g, err := OpenSegmentReaderAt(f, st.Size())
	if err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	g.path, g.f = path, f
	return g, st.Size(), nil
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
	if hdr[4] < minFormatVersion || hdr[4] > formatVersion {
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
	if foot.version != hdr[4] {
		return nil, fmt.Errorf("segstore: footer version %d in a version %d segment", foot.version, hdr[4])
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

// sliceAt returns the bytes [off, off+size): a zero-copy window into
// the mapping when the segment is mmapped (OpenSegment), else one
// ReadAt into buf, grown as needed, so the result aliases buf and is
// only good until buf's next use. A store read (Store.Scan) never maps:
// it reads only the selected pages, one ReadAt per column per run of
// adjacent pages. The footer parser already proved the range lies
// inside the data region. Handing out the mapping, or reusing buf, is
// safe because colcodec's decoders never retain their input: strings
// and byte cells are copied out during decode, both from the chunk
// itself and from the pooled buffer a compressed chunk inflates into,
// so no decoded Value outlives the mapping's Close or buf's reuse.
func (g *Segment) sliceAt(buf *[]byte, off, size int64) ([]byte, error) {
	if g.mm != nil && off >= 0 && size >= 0 && off+size <= int64(len(g.mm)) {
		return g.mm[off : off+size : off+size], nil
	}
	if int64(cap(*buf)) < size {
		*buf = make([]byte, size)
	}
	b := (*buf)[:size]
	if _, err := g.r.ReadAt(b, off); err != nil {
		return nil, err
	}
	return b, nil
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
	return g.ReadRanges(cols, nil)
}

// ReadRanges decodes the named columns (nil = all) over the given row
// ranges only (nil = every row), in order, and assembles them into
// rows. Each range must start and end on page boundaries (a v1/v2
// segment is one page); only the pages inside the ranges are read and
// decoded, plus a dictionary chunk's dictionary.
func (g *Segment) ReadRanges(cols []string, ranges []engine.RowRange) (relation.Schema, []relation.Row, error) {
	metas := make([]int, 0, len(cols))
	if cols == nil {
		for i := range g.foot.cols {
			metas = append(metas, i)
		}
	} else {
		for _, name := range cols {
			ci := g.foot.colIndex(name)
			if ci < 0 {
				return relation.Schema{}, nil, fmt.Errorf("segstore: %s: no column %q", g.path, name)
			}
			metas = append(metas, ci)
		}
	}
	pages, n, err := g.selectPages(ranges)
	if err != nil {
		return relation.Schema{}, nil, fmt.Errorf("segstore: %s: %w", g.path, err)
	}
	w := len(metas)
	rows := make([]relation.Row, n)
	cells := make([]relation.Value, n*w)
	for i := range rows {
		rows[i] = cells[i*w : (i+1)*w : (i+1)*w]
	}
	outCols := make([]relation.Column, w)
	var decoded int64
	var buf []byte // pread scratch, reused across columns and page runs
	for mi, ci := range metas {
		c := &g.foot.cols[ci]
		outCols[mi] = relation.Column{Name: c.name, Kind: c.kind}
		if g.foot.version < 3 {
			// v1/v2: one chunk; DecodeInto rejects a chunk whose row
			// count is not the footer's.
			if n == 0 {
				continue
			}
			chunk, err := g.sliceAt(&buf, c.off, c.size)
			if err != nil {
				return relation.Schema{}, nil, fmt.Errorf("segstore: %s: column %q chunk: %w", g.path, c.name, err)
			}
			decoded += c.size
			if err := colcodec.DecodeInto(relation.NewSchema(outCols[mi]), chunk, rows, mi); err != nil {
				return relation.Schema{}, nil, fmt.Errorf("segstore: %s: column %q: %w", g.path, c.name, err)
			}
			continue
		}
		var dict []relation.Value
		if c.dict > 0 && len(pages) > 0 {
			var read int64
			var err error
			if dict, read, err = g.dictionary(&buf, ci); err != nil {
				return relation.Schema{}, nil, fmt.Errorf("segstore: %s: column %q dictionary: %w", g.path, c.name, err)
			}
			decoded += read
		}
		at := 0
		for p := 0; p < len(pages); {
			// One read covers the run of pages whose payloads are
			// adjacent in the file.
			first := pages[p].cols[ci]
			q, end := p+1, first.off+first.size
			for q < len(pages) && pages[q].cols[ci].off == end {
				end += pages[q].cols[ci].size
				q++
			}
			run, err := g.sliceAt(&buf, first.off, end-first.off)
			if err != nil {
				return relation.Schema{}, nil, fmt.Errorf("segstore: %s: column %q page: %w", g.path, c.name, err)
			}
			decoded += end - first.off
			for ; p < q; p++ {
				pg := pages[p]
				pc := pg.cols[ci]
				b := run[pc.off-first.off : pc.off-first.off+pc.size]
				if err := colcodec.DecodePage(dict, b, rows[at:at+pg.rows], mi); err != nil {
					return relation.Schema{}, nil, fmt.Errorf("segstore: %s: column %q rows [%d,%d): %w", g.path, c.name, pg.start, pg.start+pg.rows, err)
				}
				at += pg.rows
			}
		}
	}
	mSegmentsScanned.Inc()
	mBytesDecoded.Add(decoded)
	if g.foot.version < 3 {
		if n > 0 {
			mPagesScanned.Inc()
		}
	} else {
		mPagesScanned.Add(int64(len(pages)))
	}
	return relation.Schema{Cols: outCols}, rows, nil
}

// dictionary returns column ci's decoded dictionary and the bytes read
// for it: none when the segment's store has it cached, else the
// dictionary payload, which is decoded and then cached. A failed decode
// is not cached, so it fails every read.
func (g *Segment) dictionary(buf *[]byte, ci int) ([]relation.Value, int64, error) {
	if g.entry != nil {
		if dict := g.entry.lru.get(g.entry, ci); dict != nil {
			mDictHits.Inc()
			return dict, 0, nil
		}
		mDictMisses.Inc()
	}
	c := &g.foot.cols[ci]
	b, err := g.sliceAt(buf, c.off, c.dict)
	if err != nil {
		return nil, 0, err
	}
	dict, err := colcodec.DecodeDict(b)
	if err != nil {
		return nil, 0, err
	}
	if g.entry != nil {
		g.entry.lru.put(g.entry, ci, dict)
	}
	return dict, c.dict, nil
}

// selectPages resolves row ranges to the pages they cover and their
// total rows. nil ranges select every page. A v1/v2 segment is one page,
// so its ranges may only be empty or the whole segment; the returned
// page list is nil for it.
func (g *Segment) selectPages(ranges []engine.RowRange) ([]pageMeta, int, error) {
	f := g.foot
	if ranges == nil {
		return f.pages, f.rows, nil
	}
	var out []pageMeta
	n, p := 0, 0
	prevHi := 0
	for _, r := range ranges {
		if r.Lo < prevHi || r.Hi <= r.Lo || r.Hi > f.rows {
			return nil, 0, fmt.Errorf("row range [%d,%d) is empty, out of order or past %d rows", r.Lo, r.Hi, f.rows)
		}
		prevHi = r.Hi
		if f.version < 3 {
			if r.Lo != 0 || r.Hi != f.rows {
				return nil, 0, fmt.Errorf("row range [%d,%d) splits an unpaged segment of %d rows", r.Lo, r.Hi, f.rows)
			}
			n = f.rows
			continue
		}
		for p < len(f.pages) && f.pages[p].start < r.Lo {
			p++
		}
		if p == len(f.pages) || f.pages[p].start != r.Lo {
			return nil, 0, fmt.Errorf("row range [%d,%d) does not start on a page boundary", r.Lo, r.Hi)
		}
		for p < len(f.pages) && f.pages[p].start < r.Hi {
			out = append(out, f.pages[p])
			n += f.pages[p].rows
			p++
		}
		if end := out[len(out)-1]; end.start+end.rows != r.Hi {
			return nil, 0, fmt.Errorf("row range [%d,%d) does not end on a page boundary", r.Lo, r.Hi)
		}
	}
	return out, n, nil
}

// ReadSegmentRows opens path and decodes the named columns (nil = all)
// over the given page-aligned row ranges (nil = every row): the
// one-call read used by cluster executors running segment-scheduled
// tasks.
func ReadSegmentRows(path string, cols []string, ranges []engine.RowRange) (relation.Schema, []relation.Row, error) {
	g, err := OpenSegment(path)
	if err != nil {
		return relation.Schema{}, nil, err
	}
	defer g.Close()
	return g.ReadRanges(cols, ranges)
}

// ------------------------------------------------------------- writing

// segmentImage is a whole segment file image for rows under a schema,
// in parts so the seal path can place crash hooks between the chunk,
// footer and sync stages.
type segmentImage struct {
	header []byte
	chunks []byte // every column's chunk, in order
	tail   []byte // footer + trailer
}

// encodeSegment lays out a v3 segment: per column one statistics pass
// (scanColumn) gives the segment zone, the page zones and the encoding
// sizes, and the column is then written page by page.
func encodeSegment(s relation.Schema, rows []relation.Row, opts colcodec.Options) (*segmentImage, error) {
	img := &segmentImage{header: append(append([]byte{}, headerMagic[:]...), formatVersion)}
	for ri, r := range rows {
		if len(r) != s.Len() {
			return nil, fmt.Errorf("segstore: row %d has %d cells, schema has %d", ri, len(r), s.Len())
		}
	}
	ncols := s.Len()
	npages := (len(rows) + PageRows - 1) / PageRows
	foot := &footer{version: formatVersion, rows: len(rows), cols: make([]colMeta, ncols), pages: make([]pageMeta, npages)}
	pageCells := make([]pageCol, npages*ncols)
	for p := range foot.pages {
		foot.pages[p] = pageMeta{
			start: p * PageRows,
			rows:  min(PageRows, len(rows)-p*PageRows),
			cols:  pageCells[p*ncols : (p+1)*ncols : (p+1)*ncols],
		}
	}
	zones := make([]ZoneMap, npages)
	for ci, col := range s.Cols {
		cs := scanColumn(rows, ci, PageRows, zones)
		start := len(img.chunks)
		var dictLen int
		var ends []int
		var err error
		img.chunks, dictLen, ends, err = colcodec.AppendPages(img.chunks, rows, ci, PageRows, &cs.sizer, opts)
		if err != nil {
			return nil, fmt.Errorf("segstore: column %q: %w", col.Name, err)
		}
		off := int64(headerLen + start)
		foot.cols[ci] = colMeta{
			name: col.Name,
			kind: col.Kind,
			off:  off,
			size: int64(len(img.chunks) - start),
			dict: int64(dictLen),
			zone: cs.zone,
		}
		prev := dictLen
		for p, end := range ends {
			foot.pages[p].cols[ci] = pageCol{off: off + int64(prev), size: int64(end - prev), zone: zones[p]}
			prev = end
		}
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

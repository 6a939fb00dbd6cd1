// Package colcodec is the hand-rolled columnar codec shared by the
// cluster wire protocol (task payloads, shuffle frames), spill runs and
// the segment store's per-column chunks. It replaces per-row gob
// reflection (which encodes every cell as a 5-field relation.Value
// struct) with per-column typed vectors: varint-packed ints and bools,
// raw little-endian float64s, length-prefixed string/bytes arenas, and
// a null bitmap per column. The schema is NOT part of the stream — both
// ends already share it (the driver computed it and shipped it in the
// stage message; a segment footer stores it) — so the payload scales
// with data bytes only.
//
// Layout (all multi-byte integers are unsigned varints unless noted):
//
//	magic   [2]byte   "C1"
//	flags   uint8     bit0: body is DEFLATE-compressed
//	nrows   uvarint
//	ncols   uvarint   (must equal the schema length on decode)
//	body    — per column, possibly compressed as one DEFLATE stream:
//	  tag   uint8     low nibble: homogeneous relation.Kind of the
//	                  non-null cells, or tagMixed (0xF); bit 0x10 set
//	                  when a null bitmap follows
//	  nulls [ceil(nrows/8)]byte   (only when bit 0x10; bit set = null)
//	  payload for the m non-null cells, in row order:
//	    bool    ceil(m/8) bitmap
//	    int     m zigzag varints
//	    float   m × 8 bytes little-endian IEEE-754
//	    string  m uvarint lengths, then one concatenated arena
//	    bytes   same as string
//	    mixed   per cell: kind uint8 then the cell's payload as above
//	                  (bool as one byte)
//
// When flags bit1 (flagEncoded) is set, every column is preceded by one
// encoding byte selecting raw, dictionary, or run-length representation
// for that column's payload — see encoding.go. Payloads without the
// flag are the raw format above, so pre-encoding streams decode
// unchanged.
//
// Encode buffers come from a sync.Pool so steady-state encoding does
// not regrow buffers per task; DEFLATE writers and the inflate state
// are pooled too (pool.go). DecodeInto decodes straight into caller
// rows, so a segment's column chunks fill one row set without an
// intermediate per-column copy.
package colcodec

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"

	"ivnt/internal/relation"
)

const (
	magic0 = 'C'
	magic1 = '1'

	flagCompressed = 0x01
	flagEncoded    = 0x02

	tagMixed    = 0xF
	tagHasNulls = 0x10
)

// maxDecodeRows bounds the row count a decoder will allocate for, so a
// corrupt or adversarial header cannot OOM the executor. Partitions at
// the paper's scale are a few hundred thousand rows.
const maxDecodeRows = 1 << 28

// maxZeroColRows bounds the row count when the schema has no columns:
// with zero cells per row there is no body to size the claim against,
// so a tighter cap stands in for the plausibility check.
const maxZeroColRows = 1 << 20

// flateMaxRatio caps decompression: DEFLATE tops out near 1032:1, so a
// body claiming to inflate past ~1040x the wire bytes is a decompression
// bomb, not trace data.
const flateMaxRatio = 1040

// maxEncodedRows bounds the row count of a payload carrying flagEncoded.
// Dict/RLE columns can legitimately describe many rows in a few bytes
// (a constant column is one run), which defeats the raw-format min-body
// plausibility gate — so encoded payloads get a tighter absolute cap
// instead. The encoder falls back to the raw format above it, so the
// cap never rejects our own output; it only bounds what a crafted
// header can make the decoder allocate before column checks run.
const maxEncodedRows = 1 << 22

// Options tune encoding.
type Options struct {
	// Compress runs the column body through DEFLATE (stdlib flate).
	// Worth it for string/bytes-heavy traces crossing real networks;
	// pure overhead on loopback.
	Compress bool

	// Level is the DEFLATE level when Compress is set. Zero means
	// flate.BestSpeed — the measured default: full DEFLATE is ~11x
	// slower to encode for ~2.5x smaller output (see the codec bench) —
	// any other value is handed to flate.NewWriter unchanged
	// (flate.BestCompression, flate.HuffmanOnly, ...).
	Level int

	// Encodings lets the encoder pick a per-column dictionary or
	// run-length representation when it is strictly smaller than the
	// raw column payload. Decoders accept such payloads regardless of
	// this option; raw payloads are unchanged on the wire.
	Encodings bool
}

// flateLevel maps Options.Level to the flate package's scale.
func flateLevel(l int) int {
	if l == 0 {
		return flate.BestSpeed
	}
	return l
}

var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// IsCompressed reports whether an encoded payload has the DEFLATE flag
// set (false for anything too short to be a valid payload). Executors
// use it to mirror the driver's compression choice on results.
func IsCompressed(data []byte) bool {
	return len(data) >= 3 && data[0] == magic0 && data[1] == magic1 && data[2]&flagCompressed != 0
}

// Encode serializes rows (which must match schema s) into a
// self-describing byte payload.
func Encode(s relation.Schema, rows []relation.Row, opts Options) ([]byte, error) {
	ncols := s.Len()
	for i, r := range rows {
		if len(r) != ncols {
			return nil, fmt.Errorf("colcodec: row %d has %d cells, schema has %d", i, len(r), ncols)
		}
	}
	return encodeColumns(rows, 0, ncols, opts)
}

// EncodeColumn serializes column ci of rows as a one-column payload: the
// bytes of Encode over the one-cell rows {r[ci]} (a v1/v2 segment's
// per-column chunk; v3 chunks are paged, see AppendPages), without
// building those rows.
func EncodeColumn(rows []relation.Row, ci int, opts Options) ([]byte, error) {
	if ci < 0 {
		return nil, fmt.Errorf("colcodec: negative column index %d", ci)
	}
	for i, r := range rows {
		if ci >= len(r) {
			return nil, fmt.Errorf("colcodec: row %d has %d cells, no column %d", i, len(r), ci)
		}
	}
	return encodeColumns(rows, ci, 1, opts)
}

// encodeColumns writes the payload of columns [first, first+ncols) of
// rows, whose widths the caller has checked.
func encodeColumns(rows []relation.Row, first, ncols int, opts Options) ([]byte, error) {
	encoded := opts.Encodings && len(rows) <= maxEncodedRows

	body := bufPool.Get().(*bytes.Buffer)
	body.Reset()
	defer bufPool.Put(body)
	var scratch [binary.MaxVarintLen64]byte
	for ci := first; ci < first+ncols; ci++ {
		if encoded {
			encodeColumnSelect(body, rows, ci, scratch[:])
		} else {
			encodeColumn(body, rows, ci, scratch[:])
		}
	}

	out := bufPool.Get().(*bytes.Buffer)
	out.Reset()
	defer bufPool.Put(out)
	flags := byte(0)
	if opts.Compress {
		flags |= flagCompressed
	}
	if encoded {
		flags |= flagEncoded
	}
	out.WriteByte(magic0)
	out.WriteByte(magic1)
	out.WriteByte(flags)
	out.Write(scratch[:binary.PutUvarint(scratch[:], uint64(len(rows)))])
	out.Write(scratch[:binary.PutUvarint(scratch[:], uint64(ncols))])
	if opts.Compress {
		level := flateLevel(opts.Level)
		fw, err := getDeflater(out, level)
		if err != nil {
			return nil, err
		}
		if _, err := fw.Write(body.Bytes()); err != nil {
			return nil, err
		}
		if err := fw.Close(); err != nil {
			return nil, err
		}
		putDeflater(fw, level)
	} else {
		out.Write(body.Bytes())
	}
	// Copy out of the pooled buffer: the caller owns the result.
	res := make([]byte, out.Len())
	copy(res, out.Bytes())
	return res, nil
}

// classifyColumn makes one pass over a column: homogeneous (all
// non-null cells share a kind) or mixed, and whether any cell is null.
func classifyColumn(rows []relation.Row, ci int) (kind relation.Kind, mixed, nulls bool) {
	kind = relation.KindNull
	for _, r := range rows {
		k := r[ci].K
		if k == relation.KindNull {
			nulls = true
			continue
		}
		if kind == relation.KindNull {
			kind = k
		} else if kind != k {
			mixed = true
		}
	}
	return kind, mixed, nulls
}

func encodeColumn(w *bytes.Buffer, rows []relation.Row, ci int, scratch []byte) {
	kind, mixed, nulls := classifyColumn(rows, ci)

	tag := byte(kind)
	if mixed {
		tag = tagMixed
	}
	if nulls {
		tag |= tagHasNulls
	}
	w.WriteByte(tag)
	if nulls {
		writeBitmap(w, rows, func(r relation.Row) bool { return r[ci].K == relation.KindNull })
	}
	if !mixed && kind == relation.KindNull {
		return // all-null column: no payload
	}

	putUvarint := func(u uint64) { w.Write(scratch[:binary.PutUvarint(scratch, u)]) }
	putVarint := func(i int64) { w.Write(scratch[:binary.PutVarint(scratch, i)]) }
	putFloat := func(f float64) {
		binary.LittleEndian.PutUint64(scratch[:8], math.Float64bits(f))
		w.Write(scratch[:8])
	}

	if mixed {
		for _, r := range rows {
			v := r[ci]
			if v.K == relation.KindNull {
				continue
			}
			w.WriteByte(byte(v.K))
			switch v.K {
			case relation.KindBool:
				w.WriteByte(byte(v.I & 1))
			case relation.KindInt:
				putVarint(v.I)
			case relation.KindFloat:
				putFloat(v.F)
			case relation.KindString:
				putUvarint(uint64(len(v.S)))
				w.WriteString(v.S)
			case relation.KindBytes:
				putUvarint(uint64(len(v.B)))
				w.Write(v.B)
			}
		}
		return
	}

	switch kind {
	case relation.KindBool:
		// Pack one bit per NON-NULL cell (the decoder skips null slots
		// entirely), not one bit per row.
		var cur byte
		m := 0
		for _, r := range rows {
			if r[ci].K == relation.KindNull {
				continue
			}
			if r[ci].I != 0 {
				cur |= 1 << (m % 8)
			}
			m++
			if m%8 == 0 {
				w.WriteByte(cur)
				cur = 0
			}
		}
		if m%8 != 0 {
			w.WriteByte(cur)
		}
	case relation.KindInt:
		for _, r := range rows {
			if r[ci].K != relation.KindNull {
				putVarint(r[ci].I)
			}
		}
	case relation.KindFloat:
		for _, r := range rows {
			if r[ci].K != relation.KindNull {
				putFloat(r[ci].F)
			}
		}
	case relation.KindString:
		for _, r := range rows {
			if r[ci].K != relation.KindNull {
				putUvarint(uint64(len(r[ci].S)))
			}
		}
		for _, r := range rows {
			if r[ci].K != relation.KindNull {
				w.WriteString(r[ci].S)
			}
		}
	case relation.KindBytes:
		for _, r := range rows {
			if r[ci].K != relation.KindNull {
				putUvarint(uint64(len(r[ci].B)))
			}
		}
		for _, r := range rows {
			if r[ci].K != relation.KindNull {
				w.Write(r[ci].B)
			}
		}
	}
}

// writeBitmap packs one bit per row (LSB-first within each byte).
func writeBitmap(w *bytes.Buffer, rows []relation.Row, bit func(relation.Row) bool) {
	var cur byte
	n := 0
	for _, r := range rows {
		if bit(r) {
			cur |= 1 << (n % 8)
		}
		n++
		if n%8 == 0 {
			w.WriteByte(cur)
			cur = 0
		}
	}
	if n%8 != 0 {
		w.WriteByte(cur)
	}
}

// Decode reconstructs the rows of a payload produced by Encode against
// the same schema: DecodeInto over freshly allocated rows sharing one
// backing array. Every length and offset is bounds-checked; corrupt
// input yields an error, never a panic.
func Decode(s relation.Schema, data []byte) ([]relation.Row, error) {
	p, err := openPayload(s.Len(), data)
	if err != nil {
		return nil, err
	}
	defer p.release()
	rows := make([]relation.Row, p.n)
	cells := make([]relation.Value, p.n*p.ncols) // one backing array
	for i := range rows {
		rows[i] = cells[i*p.ncols : (i+1)*p.ncols : (i+1)*p.ncols]
	}
	if err := p.decodeColumns(rows, 0); err != nil {
		return nil, err
	}
	return rows, nil
}

// DecodeInto decodes a payload produced by Encode against schema s
// straight into caller-owned rows: payload column ci lands in
// rows[i][off+ci], and no other cell is touched, so several payloads
// (a segment's per-column chunks) can fill one row set side by side.
// It runs every check Decode runs, and also requires len(rows) to equal
// the payload's row count and every row to have room for the columns.
// Null cells are left as they are (the zero Value when rows are fresh).
// No decoded cell aliases data or the pooled inflate buffer.
func DecodeInto(s relation.Schema, data []byte, rows []relation.Row, off int) error {
	if off < 0 {
		return fmt.Errorf("colcodec: negative column offset %d", off)
	}
	for i, r := range rows {
		if len(r) < off+s.Len() {
			return fmt.Errorf("colcodec: destination row %d has %d cells, columns [%d,%d) do not fit", i, len(r), off, off+s.Len())
		}
	}
	p, err := openPayload(s.Len(), data)
	if err != nil {
		return err
	}
	defer p.release()
	if p.n != len(rows) {
		return fmt.Errorf("colcodec: payload has %d rows, destination has %d", p.n, len(rows))
	}
	return p.decodeColumns(rows, off)
}

// payload is a header-checked payload whose (inflated) body passed the
// plausibility gate, ready for column decode.
type payload struct {
	n, ncols int
	encoded  bool
	rd       reader
	z        *inflater // pooled inflate state when the body was compressed
}

// openPayload validates the header, inflates a compressed body into a
// pooled buffer under the ratio cap, and gates the row claim against
// the body size. The caller must release the payload.
func openPayload(wantCols int, data []byte) (*payload, error) {
	if len(data) < 3 || data[0] != magic0 || data[1] != magic1 {
		return nil, fmt.Errorf("colcodec: bad magic")
	}
	flags := data[2]
	if flags&^byte(flagCompressed|flagEncoded) != 0 {
		return nil, fmt.Errorf("colcodec: unknown flags %#x", flags)
	}
	p := &payload{encoded: flags&flagEncoded != 0, rd: reader{buf: data[3:]}}
	nrows, err := p.rd.uvarint()
	if err != nil {
		return nil, fmt.Errorf("colcodec: row count: %w", err)
	}
	ncols, err := p.rd.uvarint()
	if err != nil {
		return nil, fmt.Errorf("colcodec: column count: %w", err)
	}
	if nrows > maxDecodeRows {
		return nil, fmt.Errorf("colcodec: row count %d exceeds limit", nrows)
	}
	if p.encoded && nrows > maxEncodedRows {
		return nil, fmt.Errorf("colcodec: encoded row count %d exceeds limit", nrows)
	}
	if ncols != uint64(wantCols) {
		return nil, fmt.Errorf("colcodec: payload has %d columns, schema has %d", ncols, wantCols)
	}
	if ncols == 0 && nrows > maxZeroColRows {
		return nil, fmt.Errorf("colcodec: %d rows claimed with no columns", nrows)
	}
	p.n, p.ncols = int(nrows), int(ncols)
	if flags&flagCompressed != 0 {
		// Decompress under a hard output cap so a tiny adversarial
		// payload cannot inflate into gigabytes before any column-level
		// bounds check runs.
		limit := int64(len(data))*flateMaxRatio + 4096
		p.z = getInflater()
		body, err := p.z.inflate(p.rd.rest(), limit)
		if err != nil {
			p.release()
			return nil, fmt.Errorf("colcodec: decompress: %w", err)
		}
		if int64(len(body)) >= limit {
			p.release()
			return nil, fmt.Errorf("colcodec: decompressed body exceeds %dx input", flateMaxRatio)
		}
		p.rd = reader{buf: body}
	}

	// Plausibility gate before the big allocation: every well-formed raw
	// column costs at least one tag byte plus either a null bitmap or a
	// denser payload, so a body shorter than ncols*(1+ceil(n/8)) bytes
	// cannot be describing n rows — reject it before make() does. An
	// encoded column can legitimately be a handful of bytes (one RLE run
	// covers any row count), so those payloads only owe two bytes per
	// column here and lean on the maxEncodedRows cap above instead.
	if n := p.n; n > 0 {
		minBody := int64(ncols) * int64(1+(n+7)/8)
		if p.encoded {
			minBody = int64(ncols) * 2
		}
		if int64(len(p.rd.rest())) < minBody {
			p.release()
			return nil, fmt.Errorf("colcodec: body has %d bytes, %d rows need at least %d", len(p.rd.rest()), n, minBody)
		}
	}
	return p, nil
}

// decodeColumns decodes every column into rows[i][off+ci] and rejects
// trailing body bytes.
func (p *payload) decodeColumns(rows []relation.Row, off int) error {
	for ci := 0; ci < p.ncols; ci++ {
		var err error
		if p.encoded {
			err = decodeColumnSelect(&p.rd, rows, off+ci, p.n)
		} else {
			err = decodeColumn(&p.rd, rows, off+ci, p.n)
		}
		if err != nil {
			return fmt.Errorf("colcodec: column %d: %w", ci, err)
		}
	}
	if len(p.rd.rest()) != 0 {
		return fmt.Errorf("colcodec: %d trailing bytes", len(p.rd.rest()))
	}
	return nil
}

// release returns the pooled inflate state. The body must not be read
// afterwards; decoded cells never alias it.
func (p *payload) release() {
	if p.z != nil {
		putInflater(p.z)
		p.z = nil
		p.rd = reader{}
	}
}

func decodeColumn(rd *reader, rows []relation.Row, ci, n int) error {
	tag, err := rd.byte()
	if err != nil {
		return err
	}
	kind := tag & 0x0F
	hasNulls := tag&tagHasNulls != 0
	if kind != tagMixed && kind > byte(relation.KindBytes) {
		return fmt.Errorf("bad column tag %#x", tag)
	}

	var nulls []byte
	if hasNulls {
		nulls, err = rd.bytes((n + 7) / 8)
		if err != nil {
			return err
		}
	}
	isNull := func(i int) bool {
		return nulls != nil && nulls[i/8]&(1<<(i%8)) != 0
	}

	if kind == byte(relation.KindNull) {
		// The encoder always writes a null bitmap for an all-null column
		// of one or more rows; its absence is a crafted stream trying to
		// claim many rows for one tag byte.
		if !hasNulls && n > 0 {
			return fmt.Errorf("all-null column without null bitmap")
		}
		return nil // all cells stay the zero (null) Value
	}

	if kind == tagMixed {
		for i := 0; i < n; i++ {
			if isNull(i) {
				continue
			}
			k, err := rd.byte()
			if err != nil {
				return err
			}
			if k == byte(relation.KindNull) || k > byte(relation.KindBytes) {
				return fmt.Errorf("bad mixed cell kind %d", k)
			}
			v, err := rd.cell(relation.Kind(k))
			if err != nil {
				return err
			}
			rows[i][ci] = v
		}
		return nil
	}

	switch relation.Kind(kind) {
	case relation.KindBool:
		m := 0
		for i := 0; i < n; i++ {
			if !isNull(i) {
				m++
			}
		}
		bits, err := rd.bytes((m + 7) / 8)
		if err != nil {
			return err
		}
		j := 0
		for i := 0; i < n; i++ {
			if isNull(i) {
				continue
			}
			rows[i][ci] = relation.Bool(bits[j/8]&(1<<(j%8)) != 0)
			j++
		}
	case relation.KindInt:
		for i := 0; i < n; i++ {
			if isNull(i) {
				continue
			}
			x, err := rd.varint()
			if err != nil {
				return err
			}
			rows[i][ci] = relation.Int(x)
		}
	case relation.KindFloat:
		for i := 0; i < n; i++ {
			if isNull(i) {
				continue
			}
			f, err := rd.float()
			if err != nil {
				return err
			}
			rows[i][ci] = relation.Float(f)
		}
	case relation.KindString, relation.KindBytes:
		lens := make([]int, 0, n)
		total := 0
		for i := 0; i < n; i++ {
			if isNull(i) {
				continue
			}
			l, err := rd.uvarint()
			if err != nil {
				return err
			}
			if l > uint64(len(rd.rest())) {
				return fmt.Errorf("cell length %d exceeds remaining %d bytes", l, len(rd.rest()))
			}
			lens = append(lens, int(l))
			total += int(l)
		}
		arena, err := rd.bytes(total)
		if err != nil {
			return err
		}
		j, off := 0, 0
		for i := 0; i < n; i++ {
			if isNull(i) {
				continue
			}
			chunk := arena[off : off+lens[j]]
			if relation.Kind(kind) == relation.KindString {
				rows[i][ci] = relation.Str(string(chunk))
			} else {
				b := make([]byte, len(chunk))
				copy(b, chunk)
				rows[i][ci] = relation.Bytes(b)
			}
			off += lens[j]
			j++
		}
	}
	return nil
}

// reader is a bounds-checked cursor over a byte slice.
type reader struct {
	buf []byte
	off int
}

func (r *reader) rest() []byte { return r.buf[r.off:] }

// peek returns the next byte without consuming it.
func (r *reader) peek() (byte, error) {
	if r.off >= len(r.buf) {
		return 0, io.ErrUnexpectedEOF
	}
	return r.buf[r.off], nil
}

func (r *reader) byte() (byte, error) {
	if r.off >= len(r.buf) {
		return 0, io.ErrUnexpectedEOF
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

func (r *reader) bytes(n int) ([]byte, error) {
	if n < 0 || r.off+n > len(r.buf) {
		return nil, io.ErrUnexpectedEOF
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *reader) uvarint() (uint64, error) {
	u, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("bad uvarint")
	}
	r.off += n
	return u, nil
}

func (r *reader) varint() (int64, error) {
	i, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("bad varint")
	}
	r.off += n
	return i, nil
}

func (r *reader) float() (float64, error) {
	b, err := r.bytes(8)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
}

// cell decodes one mixed-column cell payload of the given kind.
func (r *reader) cell(k relation.Kind) (relation.Value, error) {
	switch k {
	case relation.KindBool:
		b, err := r.byte()
		if err != nil {
			return relation.Value{}, err
		}
		return relation.Bool(b != 0), nil
	case relation.KindInt:
		i, err := r.varint()
		if err != nil {
			return relation.Value{}, err
		}
		return relation.Int(i), nil
	case relation.KindFloat:
		f, err := r.float()
		if err != nil {
			return relation.Value{}, err
		}
		return relation.Float(f), nil
	case relation.KindString:
		l, err := r.uvarint()
		if err != nil {
			return relation.Value{}, err
		}
		b, err := r.bytes(int(l))
		if err != nil {
			return relation.Value{}, err
		}
		return relation.Str(string(b)), nil
	case relation.KindBytes:
		l, err := r.uvarint()
		if err != nil {
			return relation.Value{}, err
		}
		b, err := r.bytes(int(l))
		if err != nil {
			return relation.Value{}, err
		}
		cp := make([]byte, len(b))
		copy(cp, b)
		return relation.Bytes(cp), nil
	default:
		return relation.Value{}, fmt.Errorf("bad cell kind %d", k)
	}
}

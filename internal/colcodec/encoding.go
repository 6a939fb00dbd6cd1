// Per-column dictionary and run-length encodings behind flagEncoded.
//
// Decoded in-vehicle signals are overwhelmingly low-cardinality and
// piecewise-constant — status flags, gears, forward-filled sensors —
// so most columns are either a few distinct values repeated (dict wins)
// or long runs of one value (RLE wins). The encoder measures both
// against the raw payload in one pass and keeps whichever is strictly
// smallest; the decoder accepts all three unconditionally.
//
// Layout per column when flagEncoded is set (first byte selects):
//
//	enc=0x00 raw   the standard column encoding, unchanged
//	enc=0x01 dict  tag uint8 | nulls bitmap? | dcount uvarint |
//	               dcount values (kind payloads as in the raw format) |
//	               m uvarint dictionary indexes, one per non-null cell
//	enc=0x02 rle   tag uint8 | nulls bitmap? | nruns uvarint |
//	               nruns × (runlen uvarint ≥ 1, one value payload)
//
// Dict and RLE apply only to homogeneous int/float/string/bytes
// columns: bool is already one bit per cell, mixed and all-null
// columns stay raw. Hardening: dict indexes must be < dcount and
// dcount ≤ m; RLE run lengths must be ≥ 1 and total exactly m.
package colcodec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"ivnt/internal/relation"
)

const (
	encRaw  = 0x00
	encDict = 0x01
	encRLE  = 0x02
)

// maxDictBuild caps the distinct-value set tracked while sizing a
// column: past 64 Ki distinct values the index stream alone costs more
// than most raw payloads, so the encoder stops counting and keeps raw.
const maxDictBuild = 1 << 16

// DebugMutateRuns, when set, receives every RLE column's run lengths
// just before they are written. Difftest uses it to inject a
// wrong-run-length corruption (structurally valid, wrong data) and
// prove the differential harness catches it. Never set in production.
var DebugMutateRuns func(runLens []int)

// valueSameBits reports bitwise equality of two cells — the identity
// used for run detection and dictionary keys. Float compares by bit
// pattern so distinct NaN payloads stay distinct and roundtrips stay
// bitwise-exact.
func valueSameBits(a, b relation.Value) bool {
	return a.K == b.K && a.I == b.I &&
		math.Float64bits(a.F) == math.Float64bits(b.F) &&
		a.S == b.S && bytes.Equal(a.B, b.B)
}

func uvarintLen(u uint64) int {
	n := 1
	for u >= 0x80 {
		u >>= 7
		n++
	}
	return n
}

// valueBytes is a cell's cost in the raw column payload (and in a
// dictionary or run value slot): varint for ints, 8 for floats,
// length-prefixed bytes for string/bytes.
func valueBytes(v relation.Value) int {
	switch v.K {
	case relation.KindInt:
		return uvarintLen(uint64(v.I)<<1 ^ uint64(v.I>>63))
	case relation.KindFloat:
		return 8
	case relation.KindString:
		return uvarintLen(uint64(len(v.S))) + len(v.S)
	case relation.KindBytes:
		return uvarintLen(uint64(len(v.B))) + len(v.B)
	}
	return 0
}

// encodeColumnSelect writes one column under the flagEncoded layout,
// choosing the cheapest of raw/dict/RLE by exact byte cost.
func encodeColumnSelect(w *bytes.Buffer, rows []relation.Row, ci int, scratch []byte) {
	sz := sizeColumn(rows, ci)
	enc := sz.Choose()
	kind, _, nulls := sz.Kind()
	w.WriteByte(byte(enc))
	mEncodings.With(enc.String()).Inc()
	switch enc {
	case EncDict:
		vals, ids := buildDict(rows, ci, &sz.dict)
		writeColumnHeader(w, rows, ci, kind, nulls)
		writeDictValues(w, vals, scratch)
		writeDictIDs(w, ids, scratch)
	case EncRLE:
		encodeRLE(w, rows, ci, kind, nulls, scratch)
	default:
		encodeColumn(w, rows, ci, scratch)
	}
}

// writeValue emits one value payload (raw-format cell, sans kind byte).
func writeValue(w *bytes.Buffer, v relation.Value, scratch []byte) {
	switch v.K {
	case relation.KindInt:
		w.Write(scratch[:binary.PutVarint(scratch, v.I)])
	case relation.KindFloat:
		binary.LittleEndian.PutUint64(scratch[:8], math.Float64bits(v.F))
		w.Write(scratch[:8])
	case relation.KindString:
		w.Write(scratch[:binary.PutUvarint(scratch, uint64(len(v.S)))])
		w.WriteString(v.S)
	case relation.KindBytes:
		w.Write(scratch[:binary.PutUvarint(scratch, uint64(len(v.B)))])
		w.Write(v.B)
	}
}

func writeColumnHeader(w *bytes.Buffer, rows []relation.Row, ci int, kind relation.Kind, nulls bool) {
	tag := byte(kind)
	if nulls {
		tag |= tagHasNulls
	}
	w.WriteByte(tag)
	if nulls {
		writeBitmap(w, rows, func(r relation.Row) bool { return r[ci].K == relation.KindNull })
	}
}

// writeDictValues emits a dictionary: its size, then each value.
func writeDictValues(w *bytes.Buffer, vals []relation.Value, scratch []byte) {
	w.Write(scratch[:binary.PutUvarint(scratch, uint64(len(vals)))])
	for _, v := range vals {
		writeValue(w, v, scratch)
	}
}

// writeDictIDs emits one dictionary index per non-null cell.
func writeDictIDs(w *bytes.Buffer, ids []int, scratch []byte) {
	for _, id := range ids {
		w.Write(scratch[:binary.PutUvarint(scratch, uint64(id))])
	}
}

func encodeRLE(w *bytes.Buffer, rows []relation.Row, ci int, kind relation.Kind, nulls bool, scratch []byte) {
	writeColumnHeader(w, rows, ci, kind, nulls)
	var lens []int
	var vals []relation.Value
	for _, r := range rows {
		v := r[ci]
		if v.K == relation.KindNull {
			continue
		}
		if len(vals) > 0 && valueSameBits(vals[len(vals)-1], v) {
			lens[len(lens)-1]++
		} else {
			vals = append(vals, v)
			lens = append(lens, 1)
		}
	}
	if DebugMutateRuns != nil {
		DebugMutateRuns(lens)
	}
	w.Write(scratch[:binary.PutUvarint(scratch, uint64(len(lens)))])
	for i, v := range vals {
		w.Write(scratch[:binary.PutUvarint(scratch, uint64(lens[i]))])
		writeValue(w, v, scratch)
	}
}

// decodeColumnSelect dispatches one flagEncoded column on its encoding
// byte.
func decodeColumnSelect(rd *reader, rows []relation.Row, ci, n int) error {
	enc, err := rd.byte()
	if err != nil {
		return err
	}
	switch enc {
	case encRaw:
		return decodeColumn(rd, rows, ci, n)
	case encDict:
		return decodeDictColumn(rd, rows, ci, n)
	case encRLE:
		return decodeRLEColumn(rd, rows, ci, n)
	default:
		return fmt.Errorf("bad column encoding %#x", enc)
	}
}

// readEncodedHeader reads and validates the tag + null bitmap shared by
// dict and RLE columns. Only homogeneous int/float/string/bytes columns
// may carry these encodings.
func readEncodedHeader(rd *reader, n int) (kind relation.Kind, isNull func(int) bool, m int, err error) {
	tag, err := rd.byte()
	if err != nil {
		return 0, nil, 0, err
	}
	k := tag & 0x0F
	switch relation.Kind(k) {
	case relation.KindInt, relation.KindFloat, relation.KindString, relation.KindBytes:
	default:
		return 0, nil, 0, fmt.Errorf("kind %d is not dict/rle-encodable", k)
	}
	var nulls []byte
	if tag&tagHasNulls != 0 {
		nulls, err = rd.bytes((n + 7) / 8)
		if err != nil {
			return 0, nil, 0, err
		}
	}
	isNull = func(i int) bool {
		return nulls != nil && nulls[i/8]&(1<<(i%8)) != 0
	}
	m = n
	if nulls != nil {
		m = 0
		for i := 0; i < n; i++ {
			if !isNull(i) {
				m++
			}
		}
	}
	return relation.Kind(k), isNull, m, nil
}

// readValue reads one value payload of the given homogeneous kind. For
// bytes the returned Value aliases the reader's buffer; callers must
// copy per cell.
func (r *reader) value(k relation.Kind) (relation.Value, error) {
	switch k {
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
	default: // KindBytes, pre-validated by readEncodedHeader
		l, err := r.uvarint()
		if err != nil {
			return relation.Value{}, err
		}
		b, err := r.bytes(int(l))
		if err != nil {
			return relation.Value{}, err
		}
		return relation.Bytes(b), nil
	}
}

func decodeDictColumn(rd *reader, rows []relation.Row, ci, n int) error {
	kind, isNull, m, err := readEncodedHeader(rd, n)
	if err != nil {
		return err
	}
	dcount, err := rd.uvarint()
	if err != nil {
		return err
	}
	// A dictionary never outgrows the cells it describes — the writer
	// would have kept raw — so dcount > m is crafted, and bounds the
	// allocation below by m.
	if dcount > uint64(m) {
		return fmt.Errorf("dictionary size %d exceeds %d non-null cells", dcount, m)
	}
	if m > 0 && dcount == 0 {
		return fmt.Errorf("empty dictionary for %d non-null cells", m)
	}
	vals := make([]relation.Value, dcount)
	for i := range vals {
		vals[i], err = rd.value(kind)
		if err != nil {
			return err
		}
	}
	for i := 0; i < n; i++ {
		if isNull(i) {
			continue
		}
		id, err := rd.uvarint()
		if err != nil {
			return err
		}
		if id >= dcount {
			return fmt.Errorf("dictionary index %d out of range (%d entries)", id, dcount)
		}
		v := vals[id]
		if kind == relation.KindBytes {
			// Cells must not alias each other (or the input buffer).
			b := make([]byte, len(v.B))
			copy(b, v.B)
			v = relation.Bytes(b)
		}
		rows[i][ci] = v
	}
	return nil
}

func decodeRLEColumn(rd *reader, rows []relation.Row, ci, n int) error {
	kind, isNull, m, err := readEncodedHeader(rd, n)
	if err != nil {
		return err
	}
	nruns, err := rd.uvarint()
	if err != nil {
		return err
	}
	if nruns > uint64(m) {
		return fmt.Errorf("%d runs for %d non-null cells", nruns, m)
	}
	i := 0 // row cursor, advanced past nulls
	covered := 0
	for run := uint64(0); run < nruns; run++ {
		rl, err := rd.uvarint()
		if err != nil {
			return err
		}
		if rl == 0 {
			return fmt.Errorf("zero-length run")
		}
		if rl > uint64(m-covered) {
			return fmt.Errorf("run length %d overflows %d remaining cells", rl, m-covered)
		}
		v, err := rd.value(kind)
		if err != nil {
			return err
		}
		for c := uint64(0); c < rl; c++ {
			for isNull(i) {
				i++
			}
			cell := v
			if kind == relation.KindBytes {
				b := make([]byte, len(v.B))
				copy(b, v.B)
				cell = relation.Bytes(b)
			}
			rows[i][ci] = cell
			i++
		}
		covered += int(rl)
	}
	if covered != m {
		return fmt.Errorf("runs cover %d of %d non-null cells", covered, m)
	}
	return nil
}

package colcodec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"ivnt/internal/relation"
)

// shapedRows builds one column per chunk representation the encoder can
// pick — raw ints, a dictionary string column, an RLE float column with
// nulls, a mixed-kind column, an all-null column and a bytes column —
// over n rows.
func shapedRows(n int) (relation.Schema, []relation.Row) {
	s := relation.NewSchema(
		relation.Column{Name: "raw", Kind: relation.KindInt},
		relation.Column{Name: "dict", Kind: relation.KindString},
		relation.Column{Name: "rle", Kind: relation.KindFloat},
		relation.Column{Name: "mixed", Kind: relation.KindNull},
		relation.Column{Name: "null", Kind: relation.KindNull},
		relation.Column{Name: "bytes", Kind: relation.KindBytes},
	)
	words := []string{"park", "reverse", "neutral", "drive"}
	rows := make([]relation.Row, n)
	for i := range rows {
		r := relation.Row{
			relation.Int(int64(i)*7919 - 1<<40),
			relation.Str(words[(i*7)%len(words)] + strings.Repeat("!", 12)),
			relation.Float(float64(i / 64)),
			relation.Null(),
			relation.Null(),
			relation.Bytes([]byte{byte(i), byte(i >> 8)}),
		}
		if i%13 == 0 {
			r[2] = relation.Null()
		}
		switch i % 3 {
		case 0:
			r[3] = relation.Int(int64(i))
		case 1:
			r[3] = relation.Str(fmt.Sprint(i))
		}
		rows[i] = r
	}
	return s, rows
}

// bodyEncoding returns the encoding byte of an uncompressed one-column
// flagEncoded payload.
func bodyEncoding(t *testing.T, data []byte) byte {
	t.Helper()
	rd := reader{buf: data[3:]}
	if _, err := rd.uvarint(); err != nil {
		t.Fatal(err)
	}
	if _, err := rd.uvarint(); err != nil {
		t.Fatal(err)
	}
	b, err := rd.byte()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestEncodeColumnMatchesEncode is the seal path's golden check:
// EncodeColumn must produce exactly the bytes Encode produces over the
// one-cell rows {r[ci]}, for every column shape, with and without
// encodings and DEFLATE.
func TestEncodeColumnMatchesEncode(t *testing.T) {
	s, rows := shapedRows(700)
	wantEnc := map[string]byte{"raw": encRaw, "dict": encDict, "rle": encRLE, "mixed": encRaw, "null": encRaw}
	for ci, col := range s.Cols {
		one := make([]relation.Row, len(rows))
		for i, r := range rows {
			one[i] = relation.Row{r[ci]}
		}
		for _, opts := range []Options{
			{}, {Encodings: true}, {Compress: true}, {Compress: true, Encodings: true},
			{Compress: true, Level: 9, Encodings: true}, {Compress: true, Level: -2},
		} {
			want, err := Encode(relation.NewSchema(col), one, opts)
			if err != nil {
				t.Fatal(err)
			}
			// Twice: the second call runs on pooled buffers and writers.
			for pass := 0; pass < 2; pass++ {
				got, err := EncodeColumn(rows, ci, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("column %q %+v pass %d: EncodeColumn differs from Encode over one-cell rows", col.Name, opts, pass)
				}
			}
			if e, ok := wantEnc[col.Name]; ok && opts == (Options{Encodings: true}) {
				if got := bodyEncoding(t, want); got != e {
					t.Fatalf("column %q picked encoding %d, fixture wants %d", col.Name, got, e)
				}
			}
		}
	}
	if _, err := EncodeColumn(rows, s.Len(), Options{}); err == nil {
		t.Fatal("EncodeColumn past the row width must fail")
	}
	if _, err := EncodeColumn(rows, -1, Options{}); err == nil {
		t.Fatal("EncodeColumn with a negative column must fail")
	}
}

// freshRows allocates n zeroed rows of width w over one backing array.
func freshRows(n, w int) []relation.Row {
	rows := make([]relation.Row, n)
	cells := make([]relation.Value, n*w)
	for i := range rows {
		rows[i] = cells[i*w : (i+1)*w : (i+1)*w]
	}
	return rows
}

func TestDecodeIntoRejectsRowCountMismatch(t *testing.T) {
	s, rows := shapedRows(40)
	for _, compress := range []bool{false, true} {
		data, err := Encode(s, rows, Options{Compress: compress, Encodings: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, 39, 41} {
			err := DecodeInto(s, data, freshRows(n, s.Len()), 0)
			if err == nil || !strings.Contains(err.Error(), "destination has") {
				t.Fatalf("compress=%v: %d destination rows for 40: err = %v", compress, n, err)
			}
		}
		if err := DecodeInto(s, data, freshRows(40, s.Len()-1), 0); err == nil {
			t.Fatal("rows too narrow for the payload's columns must be rejected")
		}
		if err := DecodeInto(s, data, freshRows(40, s.Len()), 1); err == nil {
			t.Fatal("an offset pushing columns past the row width must be rejected")
		}
		if err := DecodeInto(s, data, freshRows(40, s.Len()), -1); err == nil {
			t.Fatal("a negative offset must be rejected")
		}
	}
}

// TestDecodeIntoOffsetAndNulls fills the middle columns of wider rows:
// payload column ci must land in rows[i][off+ci], null cells must stay
// zero Values, and the cells outside the span must stay untouched.
func TestDecodeIntoOffsetAndNulls(t *testing.T) {
	s, rows := shapedRows(300)
	const off = 2
	sentinel := relation.Str("untouched")
	for _, opts := range []Options{{}, {Encodings: true}, {Compress: true, Encodings: true}} {
		data, err := Encode(s, rows, opts)
		if err != nil {
			t.Fatal(err)
		}
		dst := freshRows(len(rows), off+s.Len()+1)
		for _, r := range dst {
			r[0], r[1], r[len(r)-1] = sentinel, sentinel, sentinel
		}
		if err := DecodeInto(s, data, dst, off); err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		for i, r := range dst {
			for _, c := range []int{0, 1, len(r) - 1} {
				if !cellEqual(r[c], sentinel) {
					t.Fatalf("%+v: row %d cell %d outside the span was overwritten: %#v", opts, i, c, r[c])
				}
			}
			for ci := range s.Cols {
				got, want := r[off+ci], rows[i][ci]
				if !cellEqual(got, want) {
					t.Fatalf("%+v: row %d column %d: %#v, want %#v", opts, i, ci, got, want)
				}
				if want.K == relation.KindNull && (got.I != 0 || got.F != 0 || got.S != "" || got.B != nil) {
					t.Fatalf("%+v: row %d column %d: null cell is not the zero Value: %#v", opts, i, ci, got)
				}
			}
		}
	}
}

// TestPooledInflaterSurvivesBadPayloads decodes a rejected or corrupt
// compressed payload and then a good one, over and over, so the pooled
// inflater is reused across them: a failure must not leave state behind
// that corrupts the next decode.
func TestPooledInflaterSurvivesBadPayloads(t *testing.T) {
	s, rows := shapedRows(500)
	good, err := Encode(s, rows, Options{Compress: true, Encodings: true})
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), good...)
	for i := len(flipped) / 2; i < len(flipped)/2+8; i++ {
		flipped[i] ^= 0xA5
	}
	notDeflate := []byte{magic0, magic1, flagCompressed | flagEncoded}
	notDeflate = binary.AppendUvarint(notDeflate, uint64(len(rows)))
	notDeflate = binary.AppendUvarint(notDeflate, uint64(s.Len()))
	notDeflate = append(notDeflate, bytes.Repeat([]byte{0xFF}, 64)...)
	bad := map[string][]byte{
		"truncated stream": good[:len(good)-len(good)/3],
		"flipped stream":   flipped,
		"not deflate":      notDeflate,
		// Inflates past maxPooledBody, so its buffer leaves the pool.
		"huge body":     craft(1, uint64(s.Len()), true, make([]byte, 20<<20)),
		"trailing body": craft(0, uint64(s.Len()), true, make([]byte, 4096)),
		"bad column":    craft(4, uint64(s.Len()), true, bytes.Repeat([]byte{0x0E}, 64)),
	}
	for round := 0; round < 3; round++ {
		for name, data := range bad {
			if _, err := Decode(s, data); err == nil {
				t.Fatalf("%s: expected an error", name)
			}
			if err := DecodeInto(s, data, freshRows(500, s.Len()), 0); err == nil {
				t.Fatalf("%s: DecodeInto: expected an error", name)
			}
			got, err := Decode(s, good)
			if err != nil {
				t.Fatalf("good payload after %s: %v", name, err)
			}
			assertRowsEqual(t, got, rows)
		}
	}
}

// TestDecodedCellsDoNotAliasPooledBody pins the pooling rule: strings
// and bytes decoded from a compressed payload are copies, so reusing
// the pooled inflate buffer for later payloads cannot change them.
func TestDecodedCellsDoNotAliasPooledBody(t *testing.T) {
	s := relation.NewSchema(
		relation.Column{Name: "s", Kind: relation.KindString},
		relation.Column{Name: "b", Kind: relation.KindBytes},
		relation.Column{Name: "m", Kind: relation.KindNull},
	)
	mk := func(fill byte) []relation.Row {
		rows := make([]relation.Row, 200)
		for i := range rows {
			cell := bytes.Repeat([]byte{fill + byte(i%5)}, 8+i%3)
			rows[i] = relation.Row{relation.Str(string(cell)), relation.Bytes(cell), relation.Bytes(cell)}
			if i%2 == 0 {
				rows[i][2] = relation.Str(string(cell))
			}
		}
		return rows
	}
	for _, encodings := range []bool{false, true} {
		opts := Options{Compress: true, Encodings: encodings}
		first := mk('a')
		data, err := Encode(s, first, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(s, data)
		if err != nil {
			t.Fatal(err)
		}
		other, err := Encode(s, mk('p'), opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			if _, err := Decode(s, other); err != nil {
				t.Fatal(err)
			}
		}
		assertRowsEqual(t, got, first)
	}
}

// TestDecodeIntoColumnChunks assembles rows from standalone one-column
// payloads, the way a segment read does, and compares against Decode of
// the whole row set.
func TestDecodeIntoColumnChunks(t *testing.T) {
	s, rows := shapedRows(257)
	for _, opts := range []Options{{}, {Compress: true, Encodings: true}} {
		dst := freshRows(len(rows), s.Len())
		for ci, col := range s.Cols {
			chunk, err := EncodeColumn(rows, ci, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := DecodeInto(relation.NewSchema(col), chunk, dst, ci); err != nil {
				t.Fatalf("column %q: %v", col.Name, err)
			}
		}
		assertRowsEqual(t, dst, rows)
	}
}

// decodeIntoAgrees asserts DecodeInto reproduces rows (the output of
// Decode on data) both at offset 0 and at an offset inside wider rows.
func decodeIntoAgrees(t *testing.T, s relation.Schema, data []byte, rows []relation.Row) {
	t.Helper()
	flat := freshRows(len(rows), s.Len())
	if err := DecodeInto(s, data, flat, 0); err != nil {
		t.Fatalf("Decode accepted the payload, DecodeInto rejected it: %v", err)
	}
	assertRowsEqual(t, flat, rows)
	if len(rows) > 4096 {
		return // a zero-column payload may claim 2^20 rows; keep the fuzzer's memory small
	}
	wide := freshRows(len(rows), s.Len()+2)
	if err := DecodeInto(s, data, wide, 1); err != nil {
		t.Fatalf("DecodeInto at offset 1: %v", err)
	}
	for i, r := range wide {
		if r[0].K != relation.KindNull || r[len(r)-1].K != relation.KindNull {
			t.Fatalf("row %d: DecodeInto wrote outside its columns", i)
		}
		assertRowsEqual(t, []relation.Row{r[1 : 1+s.Len()]}, rows[i:i+1])
	}
}

// TestDecodeIntoFloatBits checks NaN payloads and signed zeros survive
// the in-place path bit for bit, across all float encodings.
func TestDecodeIntoFloatBits(t *testing.T) {
	s := relation.NewSchema(relation.Column{Name: "f", Kind: relation.KindFloat})
	vals := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Float64frombits(0x7FF8000000000001)}
	var rows []relation.Row
	for i := 0; i < 90; i++ {
		rows = append(rows, relation.Row{relation.Float(vals[i/18])})
	}
	for _, opts := range []Options{{}, {Encodings: true}, {Compress: true, Encodings: true}} {
		data, err := Encode(s, rows, opts)
		if err != nil {
			t.Fatal(err)
		}
		decodeIntoAgrees(t, s, data, rows)
	}
}

// TestPooledStateConcurrentUse runs compressed encodes and decodes from
// several goroutines at once, so the pooled deflate writers and inflate
// state are shared the way parallel segment scans share them (run it
// under -race).
func TestPooledStateConcurrentUse(t *testing.T) {
	s, rows := shapedRows(400)
	opts := Options{Compress: true, Encodings: true}
	want, err := Encode(s, rows, opts)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	for g := 0; g < 6; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 10; i++ {
				data, err := Encode(s, rows, opts)
				if err != nil || !bytes.Equal(data, want) {
					t.Errorf("concurrent encode: err %v, equal %v", err, bytes.Equal(data, want))
					return
				}
				dst := freshRows(len(rows), s.Len())
				if err := DecodeInto(s, data, dst, 0); err != nil {
					t.Errorf("concurrent decode: %v", err)
					return
				}
				for ri := range rows {
					for ci := range rows[ri] {
						if !cellEqual(dst[ri][ci], rows[ri][ci]) {
							t.Errorf("concurrent decode: row %d column %d differs", ri, ci)
							return
						}
					}
				}
			}
		}()
	}
	for g := 0; g < 6; g++ {
		<-done
	}
}

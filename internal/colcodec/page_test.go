package colcodec

import (
	"math"
	"math/rand"
	"testing"

	"ivnt/internal/relation"
)

// pagedColumn runs a Sizer over column 0 of rows with pages of
// pageRows rows and appends the paged chunk.
func pagedColumn(t *testing.T, rows []relation.Row, pageRows int, opts Options) (chunk []byte, dictLen int, ends []int) {
	t.Helper()
	var sz Sizer
	for lo := 0; lo < len(rows); lo += pageRows {
		for _, r := range rows[lo:min(lo+pageRows, len(rows))] {
			sz.Add(r[0])
		}
		sz.EndPage()
	}
	chunk, dictLen, ends, err := AppendPages(nil, rows, 0, pageRows, &sz, opts)
	if err != nil {
		t.Fatal(err)
	}
	return chunk, dictLen, ends
}

// decodePaged decodes every page of a paged chunk back into rows.
func decodePaged(t *testing.T, chunk []byte, dictLen int, ends []int, n, pageRows int) []relation.Row {
	t.Helper()
	var dict []relation.Value
	if dictLen > 0 {
		var err error
		if dict, err = DecodeDict(chunk[:dictLen]); err != nil {
			t.Fatal(err)
		}
	}
	out := make([]relation.Row, n)
	for i := range out {
		out[i] = make(relation.Row, 1)
	}
	prev := dictLen
	for p, end := range ends {
		lo := p * pageRows
		if err := DecodePage(dict, chunk[prev:end], out[lo:min(lo+pageRows, n)], 0); err != nil {
			t.Fatalf("page %d: %v", p, err)
		}
		prev = end
	}
	return out
}

// TestPagedChunkRoundTrip round-trips columns that pick each encoding,
// including pages that are all null inside dictionary and RLE chunks.
func TestPagedChunkRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	col := func(n int, cell func(i int) relation.Value) []relation.Row {
		rows := make([]relation.Row, n)
		for i := range rows {
			rows[i] = relation.Row{cell(i)}
		}
		return rows
	}
	cases := map[string][]relation.Row{
		"rle-with-null-page": col(40, func(i int) relation.Value {
			if i >= 8 && i < 16 {
				return relation.Null()
			}
			return relation.Str("on")
		}),
		"dict-with-null-page": col(64, func(i int) relation.Value {
			if i < 8 {
				return relation.Null()
			}
			return relation.Int(int64(rng.Intn(3)) * 1000003)
		}),
		"dict-bytes": col(50, func(i int) relation.Value { return relation.Bytes([]byte{byte(rng.Intn(3)), 1, 2, 3}) }),
		"raw-floats": col(30, func(i int) relation.Value { return relation.Float(rng.Float64()) }),
		"mixed": col(20, func(i int) relation.Value {
			return []relation.Value{relation.Int(1), relation.Str("x"), relation.Null(), relation.Bool(true)}[i%4]
		}),
		"nan-zeros": col(24, func(i int) relation.Value {
			return relation.Float([]float64{math.NaN(), math.Copysign(0, -1), 0}[i/8])
		}),
	}
	for name, rows := range cases {
		for _, opts := range []Options{{}, {Encodings: true}, {Encodings: true, Compress: true}} {
			t.Run(name, func(t *testing.T) {
				chunk, dictLen, ends := pagedColumn(t, rows, 8, opts)
				assertRowsEqual(t, decodePaged(t, chunk, dictLen, ends, len(rows), 8), rows)
			})
		}
	}
}

// TestDictPagesShareOneDictionary: a dictionary chunk stores its values
// once, and its pages hold ids only.
func TestDictPagesShareOneDictionary(t *testing.T) {
	rows := make([]relation.Row, 64)
	for i := range rows {
		rows[i] = relation.Row{relation.Str([]string{"alpha-long-value", "beta-long-value", "gamma-long-value"}[(i*7)%3])}
	}
	chunk, dictLen, ends := pagedColumn(t, rows, 16, Options{Encodings: true})
	if dictLen == 0 || len(ends) != 4 {
		t.Fatalf("dict %d bytes, %d pages: want a dictionary chunk of 4 pages", dictLen, len(ends))
	}
	dict, err := DecodeDict(chunk[:dictLen])
	if err != nil || len(dict) != 3 {
		t.Fatalf("dictionary %v (err %v), want 3 values", dict, err)
	}
	// Without the dictionary, or with one of another kind, a page fails.
	page := chunk[dictLen:ends[0]]
	dst := make([]relation.Row, 16)
	for i := range dst {
		dst[i] = make(relation.Row, 1)
	}
	if err := DecodePage(nil, page, dst, 0); err == nil {
		t.Fatal("dictionary page decoded without its dictionary")
	}
	if err := DecodePage([]relation.Value{relation.Int(1), relation.Int(2), relation.Int(3)}, page, dst, 0); err == nil {
		t.Fatal("string page decoded against an int dictionary")
	}
	if err := DecodePage(dict[:1], page, dst, 0); err == nil {
		t.Fatal("page ids past a short dictionary accepted")
	}
	// Plain Decode knows no dictionary either.
	if _, err := Decode(relation.NewSchema(relation.Column{Name: "c", Kind: relation.KindString}), page); err == nil {
		t.Fatal("Decode accepted a dictionary page")
	}
}

func TestDecodeDictRejects(t *testing.T) {
	enc := func(vals ...relation.Value) []byte {
		rows := make([]relation.Row, len(vals))
		for i := range vals {
			rows[i] = relation.Row{vals[i]}
		}
		b, err := Encode(relation.NewSchema(relation.Column{Name: "d", Kind: relation.KindNull}), rows, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for name, data := range map[string][]byte{
		"empty":  enc(),
		"null":   enc(relation.Int(1), relation.Null()),
		"mixed":  enc(relation.Int(1), relation.Str("a")),
		"bool":   enc(relation.Bool(true)),
		"binary": {0xff},
	} {
		if _, err := DecodeDict(data); err == nil {
			t.Errorf("%s dictionary accepted", name)
		}
	}
}

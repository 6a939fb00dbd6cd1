package colcodec

import (
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"ivnt/internal/relation"
)

// rowsFromSeed deterministically builds a row set from fuzz input bytes,
// covering every Kind (including nulls and mixed columns) so the fuzzer
// explores the full encoder surface.
func rowsFromSeed(seed []byte) (relation.Schema, []relation.Row) {
	s := relation.NewSchema(
		relation.Column{Name: "a", Kind: relation.KindInt},
		relation.Column{Name: "b", Kind: relation.KindString},
		relation.Column{Name: "c", Kind: relation.KindFloat},
	)
	var rows []relation.Row
	for i := 0; i+3 <= len(seed) && len(rows) < 512; i += 3 {
		b0, b1, b2 := seed[i], seed[i+1], seed[i+2]
		var row relation.Row
		for ci, sel := range []byte{b0, b1, b2} {
			switch sel % 7 {
			case 0:
				row = append(row, relation.Null())
			case 1:
				row = append(row, relation.Bool(sel&0x10 != 0))
			case 2:
				row = append(row, relation.Int(int64(b0)<<8|int64(b1)-int64(b2)*3))
			case 3:
				row = append(row, relation.Float(math.Float64frombits(uint64(b0)<<56|uint64(b1)<<24|uint64(b2))))
			case 4:
				row = append(row, relation.Str(string(seed[i:i+1+int(sel%2)])))
			case 5:
				row = append(row, relation.Bytes(seed[i:i+ci+1]))
			case 6:
				row = append(row, relation.Str(""))
			}
		}
		rows = append(rows, row)
	}
	return s, rows
}

// FuzzRoundTrip asserts Encode→Decode is the identity for arbitrary row
// sets, with and without compression.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte("abcdefghijklmnopqrstuvwxyz0123456789"))
	f.Add([]byte{7, 7, 7, 0xFF, 0x00, 0x80, 3, 3, 3})
	f.Fuzz(func(t *testing.T, seed []byte) {
		s, rows := rowsFromSeed(seed)
		for _, compress := range []bool{false, true} {
			for _, encodings := range []bool{false, true} {
				data, err := Encode(s, rows, Options{Compress: compress, Encodings: encodings})
				if err != nil {
					t.Fatalf("encode(compress=%v, encodings=%v): %v", compress, encodings, err)
				}
				got, err := Decode(s, data)
				if err != nil {
					t.Fatalf("decode(compress=%v, encodings=%v): %v", compress, encodings, err)
				}
				assertRowsEqual(t, got, rows)
			}
		}
	})
}

// TestFuzzCorpusCheckedIn pins the malicious dict/RLE shapes as
// seed-corpus files under testdata/fuzz/FuzzDecode, so `go test -fuzz`
// (and plain runs of the fuzz target) always start from them.
// Regenerate with UPDATE_FUZZ_CORPUS=1 after changing the format.
func TestFuzzCorpusCheckedIn(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecode")
	update := os.Getenv("UPDATE_FUZZ_CORPUS") != ""
	if update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for name, data := range maliciousEncoded() {
		want := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		path := filepath.Join(dir, name)
		if update {
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("corpus file missing (run with UPDATE_FUZZ_CORPUS=1 to regenerate): %v", err)
		}
		if string(got) != want {
			t.Fatalf("corpus file %s is stale (run with UPDATE_FUZZ_CORPUS=1 to regenerate)", name)
		}
	}
}

// FuzzDecode feeds arbitrary bytes straight into Decode: it must return
// an error or valid rows, never panic or over-allocate. Every payload
// Decode accepts must decode identically through DecodeInto, at offset
// 0 and inside wider rows.
func FuzzDecode(f *testing.F) {
	s := kitchenSinkSchema()
	good, err := Encode(s, kitchenSinkRows(), Options{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{magic0, magic1, 0, 3, 2})
	f.Add([]byte{magic0, magic1, flagCompressed, 1, 1, 0xDE, 0xAD})
	f.Add([]byte{})
	// Malicious shapes the hardening gates must hold against: a header
	// claiming 2^27 rows over a 3-byte body, an all-null column with the
	// bitmap bit cleared, a cell length overclaiming a terabyte, and a
	// zero-column payload claiming rows with no body to back them.
	f.Add(craft(1<<27, uint64(s.Len()), false, []byte{0, 0, 0}))
	f.Add(craft(1<<27, uint64(s.Len()), true, []byte{0, 0, 0}))
	f.Add(craft(64, uint64(s.Len()), false, append([]byte{0}, make([]byte, 64)...)))
	f.Add(craft(8, uint64(s.Len()), false, append([]byte{byte(relation.KindString), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}, make([]byte, 32)...)))
	f.Add(craft(1<<21, 0, false, nil))
	// The dict/RLE hardening shapes (out-of-range dictionary index,
	// run-count overflow, ...) plus a valid encoded payload so mutations
	// reach the flagEncoded paths. Checked in via TestFuzzCorpusCheckedIn.
	goodEnc, err := Encode(s, kitchenSinkRows(), Options{Encodings: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(goodEnc)
	for _, data := range maliciousEncoded() {
		f.Add(data)
	}
	// The one-column schema matches the malicious encoded shapes, so the
	// dict/RLE validation paths actually run instead of dying at the
	// column-count check.
	one := relation.NewSchema(relation.Column{Name: "a", Kind: relation.KindInt})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, sch := range []relation.Schema{s, one} {
			rows, err := Decode(sch, data)
			if err == nil {
				// Whatever decoded must at least be schema-shaped.
				for _, r := range rows {
					if len(r) != sch.Len() {
						t.Fatalf("decoded row has %d cells, schema has %d", len(r), sch.Len())
					}
				}
				decodeIntoAgrees(t, sch, data, rows)
			}
		}
	})
}

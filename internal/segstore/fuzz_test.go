package segstore

import (
	"bytes"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"ivnt/internal/colcodec"
	"ivnt/internal/engine"
	"ivnt/internal/relation"
)

// validSegmentBytes assembles a complete, well-formed segment file
// image in memory (the fuzz baseline every mutation starts from).
func validSegmentBytes(t testing.TB) []byte {
	t.Helper()
	img, err := encodeSegment(testSchema(), testRows(), colcodec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return img.bytes()
}

// assemble builds a segment file from a hand-crafted footer body with a
// CORRECT trailer (length + CRC), so the malicious payload reaches the
// footer parser instead of dying at the checksum. The header carries
// the footer body's version byte.
func assemble(chunks []byte, footerBody []byte) []byte {
	var b []byte
	b = append(b, headerMagic[:]...)
	b = append(b, footerBody[0])
	b = append(b, chunks...)
	b = append(b, footerBody...)
	b = appendLE32(b, uint32(len(footerBody)))
	b = appendLE32(b, crc32.ChecksumIEEE(footerBody))
	return append(b, trailerMagic[:]...)
}

// oneFloatColumn encodes a single float column "v" holding 2.0, the
// chunk the crafted footers below describe.
func oneFloatColumn(t testing.TB) []byte {
	t.Helper()
	one := relation.NewSchema(relation.Column{Name: "v", Kind: relation.KindFloat})
	chunk, err := colcodec.Encode(one, []relation.Row{{relation.Float(2)}}, colcodec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return chunk
}

// kindFlagFooter crafts the body of a version-ver footer for one
// one-row column "v" over chunk, with the given zone counts and flags;
// float bounds (2, 2) and string bounds ("a", "a") follow whenever the
// flags claim them.
func kindFlagFooter(ver byte, chunk []byte, numKind, strs uint64, flags byte) []byte {
	w := newByteWriter()
	w.byte(ver)
	w.uvarint(1) // rows
	w.uvarint(1) // cols
	w.str("v")
	w.byte(byte(relation.KindFloat))
	w.uvarint(uint64(headerLen))
	w.uvarint(uint64(len(chunk)))
	w.uvarint(0)       // nulls
	w.uvarint(numKind) // numkind
	w.uvarint(numKind) // numord
	w.uvarint(0)       // nans
	w.uvarint(strs)    // strs
	w.byte(flags)
	if flags&zoneFlagF != 0 {
		w.float(2)
		w.float(2)
	}
	if flags&zoneFlagS != 0 {
		w.str("a")
		w.str("a")
	}
	return w.bytes()
}

// kindFlagFooters are the footer bodies of the three kind-bit shapes in
// maliciousSegments, over oneFloatColumn's chunk.
func kindFlagFooters(chunk []byte) map[string][]byte {
	return map[string][]byte{
		// All-float over a column with no int/float cell.
		"zone-floatonly-without-numbers": kindFlagFooter(2, chunk, 0, 1, zoneFlagS|zoneFlagFloats),
		// All-float and all-int at once.
		"zone-floatonly-and-intonly": kindFlagFooter(2, chunk, 1, 0, zoneFlagF|zoneFlagFloats|zoneFlagInts),
		// A kind bit in a v1 footer, which predates them.
		"zone-kind-bit-in-v1-footer": kindFlagFooter(1, chunk, 1, 0, zoneFlagF|zoneFlagFloats),
	}
}

// The checked-in malicious corpus shapes. Each must be rejected with an
// error — never a panic, never a Segment licensing unsound pruning or
// an unsound footer answer.
func maliciousSegments(t testing.TB) map[string][]byte {
	t.Helper()
	valid := validSegmentBytes(t)

	// 1. Footer truncated mid-stream: the trailer (and its CRC) vanish.
	truncated := valid[:len(valid)-7]

	// 2. Zone map claiming FMin > FMax: a crafted footer over one real
	// float chunk. If the parser trusted it, "v < 3" would prune a
	// segment that contains 2.0.
	chunk := oneFloatColumn(t)
	w := newByteWriter()
	w.byte(2)
	w.uvarint(1) // rows
	w.uvarint(1) // cols
	w.str("v")
	w.byte(byte(relation.KindFloat))
	w.uvarint(uint64(headerLen))
	w.uvarint(uint64(len(chunk)))
	w.uvarint(0) // nulls
	w.uvarint(1) // numkind
	w.uvarint(1) // numord
	w.uvarint(0) // nans
	w.uvarint(0) // strs
	w.byte(zoneFlagF)
	w.float(5) // FMin
	w.float(1) // FMax  — inverted bounds
	badZone := assemble(chunk, w.bytes())

	// 3. Column-count overflow: a footer claiming 2^20 columns (far past
	// maxCols) to bait a huge allocation before any per-column data.
	w = newByteWriter()
	w.byte(2)
	w.uvarint(1)
	w.uvarint(1 << 20)
	overflow := assemble(nil, w.bytes())

	// 4. CRC mismatch: one bit flipped inside an otherwise valid footer.
	flipped := append([]byte{}, valid...)
	flipped[len(flipped)-trailerLen-3] ^= 0x01
	out := map[string][]byte{
		"truncated-footer":      truncated,
		"zone-min-gt-max":       badZone,
		"column-count-overflow": overflow,
		"footer-crc-mismatch":   flipped,
	}
	// 5–7. Zone kind bits that contradict the counts or each other. A
	// footer answer turns them into the kind of a min/max cell, so a
	// parser that trusted them would answer min(v) with the wrong kind.
	for name, body := range kindFlagFooters(chunk) {
		out[name] = assemble(chunk, body)
	}
	return out
}

// maliciousChunkSegments builds segments whose footers are VALID — they
// open fine, their zone maps parse, the CRC holds — but whose column
// chunks carry malicious dict/RLE payloads. Rejection must happen at
// ReadColumns, inside the colcodec layer.
func maliciousChunkSegments(t testing.TB) map[string][]byte {
	t.Helper()
	// Hand-assembled colcodec chunk: one int column "v", eight rows,
	// flagEncoded, uncompressed.
	chunkHeader := func() *byteWriter {
		w := newByteWriter()
		w.byte('C')
		w.byte('1')
		w.byte(0x02) // flagEncoded
		w.uvarint(8) // nrows
		w.uvarint(1) // ncols
		return w
	}
	zigzag := func(w *byteWriter, v int64) { w.uvarint(uint64(v)<<1 ^ uint64(v>>63)) }

	// Dictionary of one entry, but the last index points to slot 5.
	w := chunkHeader()
	w.byte(0x01) // encDict
	w.byte(byte(relation.KindInt))
	w.uvarint(1) // dcount
	zigzag(w, 7) // the single dictionary value
	for i := 0; i < 7; i++ {
		w.uvarint(0)
	}
	w.uvarint(5) // index out of range
	dictChunk := w.bytes()

	// Two runs claiming 7+9 = 16 cells against 8 non-null rows.
	w = chunkHeader()
	w.byte(0x02) // encRLE
	w.byte(byte(relation.KindInt))
	w.uvarint(2) // nruns
	w.uvarint(7)
	zigzag(w, 1)
	w.uvarint(9) // overflows the 1 remaining cell
	zigzag(w, 2)
	rleChunk := w.bytes()

	// Wrap each chunk in a fully consistent footer: counts match the
	// claimed 8 int rows, float bounds are ordered, CRC is correct.
	wrap := func(chunk []byte) []byte {
		w := newByteWriter()
		w.byte(2)
		w.uvarint(8) // rows
		w.uvarint(1) // cols
		w.str("v")
		w.byte(byte(relation.KindInt))
		w.uvarint(uint64(headerLen))
		w.uvarint(uint64(len(chunk)))
		w.uvarint(0) // nulls
		w.uvarint(8) // numkind
		w.uvarint(8) // numord
		w.uvarint(0) // nans
		w.uvarint(0) // strs
		w.byte(zoneFlagF)
		w.float(0)
		w.float(7)
		return assemble(chunk, w.bytes())
	}
	return map[string][]byte{
		"dict-index-out-of-range": wrap(dictChunk),
		"rle-run-overflow":        wrap(rleChunk),
	}
}

// allMaliciousSegments merges the footer-level and chunk-level shapes
// for corpus check-in and fuzz seeding.
func allMaliciousSegments(t testing.TB) map[string][]byte {
	all := maliciousSegments(t)
	for name, data := range maliciousChunkSegments(t) {
		all[name] = data
	}
	for name, data := range maliciousPageSegments(t) {
		all[name] = data
	}
	return all
}

func TestMaliciousSegmentsRejected(t *testing.T) {
	for name, data := range maliciousSegments(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := OpenSegmentReaderAt(bytes.NewReader(data), int64(len(data))); err == nil {
				t.Fatalf("%s accepted (%d bytes)", name, len(data))
			}
		})
	}
}

// TestMaliciousChunksRejected: the chunk-level shapes get PAST the
// footer gate (open succeeds — the footer really is valid) and die in
// colcodec validation when the chunks are decoded.
func TestMaliciousChunksRejected(t *testing.T) {
	for name, data := range maliciousChunkSegments(t) {
		t.Run(name, func(t *testing.T) {
			g, err := OpenSegmentReaderAt(bytes.NewReader(data), int64(len(data)))
			if err != nil {
				t.Fatalf("%s rejected at open — it must reach chunk decode: %v", name, err)
			}
			if _, _, err := g.ReadColumns(nil); err == nil {
				t.Fatalf("%s decoded cleanly", name)
			}
		})
	}
}

// TestFuzzCorpusCheckedIn pins the malicious shapes as seed-corpus
// files under testdata/fuzz/FuzzSegmentDecode, so `go test -fuzz` (and
// plain runs of the fuzz target) always start from them. Regenerate
// with UPDATE_FUZZ_CORPUS=1 after changing the format.
func TestFuzzCorpusCheckedIn(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzSegmentDecode")
	update := os.Getenv("UPDATE_FUZZ_CORPUS") != ""
	if update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for name, data := range allMaliciousSegments(t) {
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

// FuzzSegmentDecode hardens the whole read path: arbitrary bytes must
// either fail to open or yield a segment whose columns decode without
// panics, allocation blow-ups, or rows beyond the footer's claim.
func FuzzSegmentDecode(f *testing.F) {
	f.Add(validSegmentBytes(f))
	f.Add([]byte{})
	f.Add([]byte("IVSG\x01"))
	for _, data := range allMaliciousSegments(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := OpenSegmentReaderAt(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		if g.Rows() < 0 || g.Rows() > maxRows {
			t.Fatalf("accepted segment with %d rows", g.Rows())
		}
		if s := g.Schema(); s.Len() > maxCols {
			t.Fatalf("accepted segment with %d columns", s.Len())
		}
		// Zone maps of an accepted segment must never be self-inverted —
		// that is exactly the shape that licenses unsound pruning.
		for _, c := range g.Schema().Cols {
			z, ok := g.Zone(c.Name)
			if !ok {
				t.Fatalf("column %q lost its zone", c.Name)
			}
			if z.FHas && (math.IsNaN(z.FMin) || z.FMin > z.FMax) {
				t.Fatalf("accepted inverted float bounds [%g, %g]", z.FMin, z.FMax)
			}
			if z.SHas && z.SMin > z.SMax {
				t.Fatalf("accepted inverted string bounds [%q, %q]", z.SMin, z.SMax)
			}
			// Kind bits are what a footer answer trusts for a cell's kind.
			if (z.FloatsOnly || z.IntsOnly) && (z.NumKind == 0 || z.FloatsOnly == z.IntsOnly) {
				t.Fatalf("accepted contradictory kind bits %+v", z)
			}
			footerPartial(g.foot, nil, []string{c.Name}, []engine.AggSpec{
				{Fn: engine.AggCount, As: "n"},
				{Fn: engine.AggMin, Col: c.Name, As: "lo"},
				{Fn: engine.AggMax, Col: c.Name, As: "hi"},
			})
		}
		// Chunk decode must fail cleanly or produce the footer's row count.
		if _, rows, err := g.ReadColumns(nil); err == nil && len(rows) != g.Rows() {
			t.Fatalf("decoded %d rows, footer says %d", len(rows), g.Rows())
		}
	})
}

// FuzzFooter drills the footer parser directly, without the CRC gate in
// front of it: every structural invariant must hold by validation, not
// by trust in the writer.
func FuzzFooter(f *testing.F) {
	img, err := encodeSegment(testSchema(), testRows(), colcodec.Options{})
	if err != nil {
		f.Fatal(err)
	}
	dataEnd := int64(headerLen + len(img.chunks))
	f.Add(img.tail[:len(img.tail)-trailerLen], uint32(dataEnd))
	for _, data := range maliciousPageSegments(f) {
		flen := int64(le32(data[len(data)-trailerLen:]))
		footOff := int64(len(data)) - trailerLen - flen
		f.Add(data[footOff:len(data)-trailerLen], uint32(footOff))
	}
	f.Add([]byte{formatVersion, 0, 0}, uint32(headerLen))
	chunk := oneFloatColumn(f)
	for _, body := range kindFlagFooters(chunk) {
		f.Add(body, uint32(headerLen+len(chunk)))
	}
	f.Fuzz(func(t *testing.T, body []byte, end uint32) {
		foot, err := parseFooter(body, int64(end))
		if err != nil {
			return
		}
		if foot.rows < 0 || foot.rows > maxRows || len(foot.cols) > maxCols {
			t.Fatalf("accepted footer rows=%d cols=%d", foot.rows, len(foot.cols))
		}
		prevEnd := int64(headerLen)
		for _, c := range foot.cols {
			if c.off < prevEnd || c.off+c.size > int64(end) {
				t.Fatalf("accepted out-of-bounds chunk [%d,+%d)", c.off, c.size)
			}
			prevEnd = c.off + c.size
		}
	})
}

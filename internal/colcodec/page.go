// Paged column chunks: one column cut into pages of consecutive rows,
// each page a payload that decodes on its own, so a reader that needs a
// few row ranges decodes only the pages covering them (the segment
// store's v3 chunks; see internal/segstore/format.go).
//
// A paged chunk is
//
//	dict   optional: the chunk's dictionary, a one-column raw payload
//	       (header as in colcodec.go) holding the distinct values in
//	       first-appearance order; present only for EncDict chunks
//	pages  one payload per page, header as in colcodec.go with ncols 1
//
// The chunk's encoding is chosen once (Sizer.Choose over every page);
// each page then writes its rows in it:
//
//	raw   the standard column (flagEncoded + encRaw when Options.Encodings)
//	rle   encRLE over the page's rows: runs split at page boundaries
//	dict  encDictRef: tag | nulls bitmap? | one uvarint id per non-null
//	      cell, indexing the chunk dictionary, which the page does not
//	      repeat
//
// DEFLATE runs per page, and per dictionary; a page (or dictionary)
// whose body is tiny, or whose compressed body would not be smaller, is
// stored uncompressed, which its flags byte records.
package colcodec

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"ivnt/internal/relation"
)

// encDictRef marks a page of a dictionary chunk: ids only, resolved
// against the dictionary the caller decoded from the chunk head. It is
// valid only inside paged chunks; Decode rejects it.
const encDictRef = 0x03

// AppendPages appends column ci of rows to dst as a paged chunk with
// pages of pageRows rows (the last one shorter), in the encoding sz
// chooses when opts.Encodings is set and raw otherwise. sz must have
// seen exactly this column, with EndPage at the same page boundaries.
// It returns the extended dst, the length of the dictionary payload at
// the chunk's head (0 unless the chunk is dictionary-encoded) and each
// page's end offset relative to the chunk's start.
func AppendPages(dst []byte, rows []relation.Row, ci, pageRows int, sz *Sizer, opts Options) (out []byte, dictLen int, pageEnds []int, err error) {
	if pageRows < 1 {
		return dst, 0, nil, fmt.Errorf("colcodec: page size %d", pageRows)
	}
	for i, r := range rows {
		if ci < 0 || ci >= len(r) {
			return dst, 0, nil, fmt.Errorf("colcodec: row %d has %d cells, no column %d", i, len(r), ci)
		}
	}
	enc := EncRaw
	if opts.Encodings {
		enc = sz.Choose()
	}
	kind, _, _ := sz.Kind()
	mEncodings.With(enc.String()).Inc()
	start := len(dst)
	body := bufPool.Get().(*bytes.Buffer)
	defer bufPool.Put(body)
	var scratch [binary.MaxVarintLen64]byte
	var ids []int
	if enc == EncDict {
		var vals []relation.Value
		vals, ids = buildDict(rows, ci, &sz.dict)
		drows := make([]relation.Row, len(vals))
		for i := range vals {
			drows[i] = vals[i : i+1 : i+1]
		}
		body.Reset()
		encodeColumn(body, drows, 0, scratch[:])
		if dst, err = appendPayload(dst, len(drows), body.Bytes(), false, opts); err != nil {
			return dst, 0, nil, err
		}
		dictLen = len(dst) - start
	}
	if len(sz.pageNulls) != (len(rows)+pageRows-1)/pageRows {
		return dst, 0, nil, fmt.Errorf("colcodec: sizer saw %d pages, column has %d", len(sz.pageNulls), (len(rows)+pageRows-1)/pageRows)
	}
	for p, lo := 0, 0; lo < len(rows); p, lo = p+1, lo+pageRows {
		page := rows[lo:min(lo+pageRows, len(rows))]
		nulls := sz.pageNulls[p]
		body.Reset()
		switch enc {
		case EncDict:
			m := len(page)
			if nulls {
				m = 0
				for _, r := range page {
					if r[ci].K != relation.KindNull {
						m++
					}
				}
			}
			body.WriteByte(encDictRef)
			writeColumnHeader(body, page, ci, kind, nulls)
			writeDictIDs(body, ids[:m], scratch[:])
			ids = ids[m:]
		case EncRLE:
			// The chunk's kind, not the page's: an all-null page of an RLE
			// chunk still carries an encodable kind tag.
			body.WriteByte(encRLE)
			encodeRLE(body, page, ci, kind, nulls, scratch[:])
		default:
			if opts.Encodings {
				body.WriteByte(encRaw)
			}
			encodeColumn(body, page, ci, scratch[:])
		}
		if dst, err = appendPayload(dst, len(page), body.Bytes(), opts.Encodings, opts); err != nil {
			return dst, 0, nil, err
		}
		pageEnds = append(pageEnds, len(dst)-start)
	}
	return dst, dictLen, pageEnds, nil
}

// minDeflateBody is the smallest page body worth deflating. Below 128
// bytes DEFLATE's fast level only Huffman-codes the bytes, and building
// the code tables costs more time than the few bytes it might save; a
// constant column's run-length page is about 20 bytes.
const minDeflateBody = 128

// appendPayload appends a one-column payload (header and body) to dst,
// deflating the body when opts.Compress is set, the body is at least
// minDeflateBody bytes, and the deflated body is smaller.
func appendPayload(dst []byte, nrows int, body []byte, encoded bool, opts Options) ([]byte, error) {
	flags := byte(0)
	if encoded {
		flags |= flagEncoded
	}
	at := len(dst)
	dst = append(dst, magic0, magic1, flags)
	dst = binary.AppendUvarint(dst, uint64(nrows))
	dst = append(dst, 1) // ncols
	if !opts.Compress || len(body) < minDeflateBody {
		return append(dst, body...), nil
	}
	z := bufPool.Get().(*bytes.Buffer)
	defer bufPool.Put(z)
	z.Reset()
	level := flateLevel(opts.Level)
	fw, err := getDeflater(z, level)
	if err != nil {
		return dst, err
	}
	if _, err := fw.Write(body); err != nil {
		return dst, err
	}
	if err := fw.Close(); err != nil {
		return dst, err
	}
	putDeflater(fw, level)
	if z.Len() >= len(body) {
		return append(dst, body...), nil
	}
	dst[at+2] |= flagCompressed
	return append(dst, z.Bytes()...), nil
}

// DecodeDict decodes a paged chunk's dictionary payload: at least one
// value, all of one dictionary-encodable kind, none null.
func DecodeDict(data []byte) ([]relation.Value, error) {
	p, err := openPayload(1, data)
	if err != nil {
		return nil, err
	}
	defer p.release()
	if p.encoded {
		return nil, fmt.Errorf("colcodec: dictionary payload carries encodings")
	}
	if p.n == 0 {
		return nil, fmt.Errorf("colcodec: empty dictionary")
	}
	cells := make([]relation.Value, p.n)
	rows := make([]relation.Row, p.n)
	for i := range rows {
		rows[i] = cells[i : i+1 : i+1]
	}
	if err := p.decodeColumns(rows, 0); err != nil {
		return nil, err
	}
	k := cells[0].K
	switch k {
	case relation.KindInt, relation.KindFloat, relation.KindString, relation.KindBytes:
	default:
		return nil, fmt.Errorf("colcodec: dictionary of kind %s", k)
	}
	for _, v := range cells {
		if v.K != k {
			return nil, fmt.Errorf("colcodec: dictionary mixes kinds %s and %s", k, v.K)
		}
	}
	return cells, nil
}

// DecodePage decodes one page payload of a paged chunk into column ci
// of rows, which must have exactly the page's row count. dict is the
// chunk's decoded dictionary, nil when the chunk has none; a page that
// references one without it is rejected. No decoded cell aliases data.
func DecodePage(dict []relation.Value, data []byte, rows []relation.Row, ci int) error {
	for i, r := range rows {
		if ci < 0 || ci >= len(r) {
			return fmt.Errorf("colcodec: destination row %d has %d cells, no column %d", i, len(r), ci)
		}
	}
	p, err := openPayload(1, data)
	if err != nil {
		return err
	}
	defer p.release()
	if p.n != len(rows) {
		return fmt.Errorf("colcodec: page has %d rows, destination has %d", p.n, len(rows))
	}
	if p.encoded {
		if enc, _ := p.rd.peek(); enc == encDictRef {
			p.rd.off++
			if err := decodeDictRef(&p.rd, dict, rows, ci, p.n); err != nil {
				return fmt.Errorf("colcodec: page: %w", err)
			}
			if len(p.rd.rest()) != 0 {
				return fmt.Errorf("colcodec: %d trailing bytes", len(p.rd.rest()))
			}
			return nil
		}
	}
	return p.decodeColumns(rows, ci)
}

// decodeDictRef decodes an encDictRef page column against the chunk
// dictionary.
func decodeDictRef(rd *reader, dict []relation.Value, rows []relation.Row, ci, n int) error {
	kind, isNull, m, err := readEncodedHeader(rd, n)
	if err != nil {
		return err
	}
	if m > 0 && len(dict) == 0 {
		return fmt.Errorf("dictionary page without a dictionary")
	}
	if m > 0 && dict[0].K != kind {
		return fmt.Errorf("page kind %s, dictionary kind %s", kind, dict[0].K)
	}
	for i := 0; i < n; i++ {
		if isNull(i) {
			continue
		}
		id, err := rd.uvarint()
		if err != nil {
			return err
		}
		if id >= uint64(len(dict)) {
			return fmt.Errorf("dictionary index %d out of range (%d entries)", id, len(dict))
		}
		v := dict[id]
		if kind == relation.KindBytes {
			b := make([]byte, len(v.B))
			copy(b, v.B)
			v = relation.Bytes(b)
		}
		rows[i][ci] = v
	}
	return nil
}

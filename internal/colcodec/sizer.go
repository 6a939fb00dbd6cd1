// Sizer: the encoding-selection half of a column's statistics pass.
//
// Choosing between raw, dictionary and run-length payloads needs the
// exact byte cost of each, which means visiting every cell. A segment
// seal already visits every cell to build zone maps, so the segment
// store drives one loop per column and feeds each cell to both a zone
// accumulator and a Sizer. Two things keep the pass cheap on the data
// this codec is built for (reduced, piecewise-constant signals):
//
//   - Repeat: a cell bitwise-equal to the previous non-null cell
//     extends the current run and reuses the previous dictionary id, so
//     neither the payload size nor the dictionary map is consulted.
//   - Typed dictionary maps: ints and floats key a map by their 64 bits,
//     strings and bytes by their contents, instead of one struct key
//     carrying every field of a relation.Value.
package colcodec

import (
	"math"

	"ivnt/internal/relation"
)

// Encoding names a column chunk's payload representation.
type Encoding byte

// The encodings a Sizer chooses between (see encoding.go for layouts).
const (
	EncRaw  Encoding = encRaw
	EncDict Encoding = encDict
	EncRLE  Encoding = encRLE
)

func (e Encoding) String() string {
	switch e {
	case EncDict:
		return "dict"
	case EncRLE:
		return "rle"
	default:
		return "raw"
	}
}

// SameBits reports bitwise equality of two cells: the identity runs and
// dictionary entries are keyed on. Floats compare by bit pattern, so
// distinct NaN payloads and -0/+0 stay distinct.
func SameBits(a, b relation.Value) bool { return valueSameBits(a, b) }

// dictIndex assigns dictionary ids in first-appearance order, keyed by
// a cell's bits. A column reaching it is homogeneous, so the kind is
// implied by the map used.
type dictIndex struct {
	nums map[uint64]int
	strs map[string]int
	n    int
}

// id returns v's id, inserting v (added) when it is new — unless the
// index already holds limit values, in which case it reports full and
// inserts nothing.
func (d *dictIndex) id(v relation.Value, limit int) (id int, added, full bool) {
	switch v.K {
	case relation.KindInt, relation.KindFloat:
		k := uint64(v.I)
		if v.K == relation.KindFloat {
			k = math.Float64bits(v.F)
		}
		if id, ok := d.nums[k]; ok {
			return id, false, false
		}
		if d.n >= limit {
			return 0, false, true
		}
		if d.nums == nil {
			d.nums = make(map[uint64]int)
		}
		d.nums[k] = d.n
	default: // string, bytes
		var id int
		var ok bool
		if v.K == relation.KindBytes {
			id, ok = d.strs[string(v.B)]
		} else {
			id, ok = d.strs[v.S]
		}
		if ok {
			return id, false, false
		}
		if d.n >= limit {
			return 0, false, true
		}
		if d.strs == nil {
			d.strs = make(map[string]int)
		}
		if v.K == relation.KindBytes {
			d.strs[string(v.B)] = d.n
		} else {
			d.strs[v.S] = d.n
		}
	}
	d.n++
	return d.n - 1, true, false
}

// Sizer accumulates one column's kind and its raw, dictionary and
// run-length payload costs, one cell at a time. Runs close at every
// EndPage, because a paged chunk splits its runs at page boundaries;
// the dictionary spans the whole chunk. The zero Sizer is ready.
type Sizer struct {
	kind  relation.Kind // homogeneous non-null kind so far (KindNull: none yet)
	mixed bool
	nulls bool

	rawB int

	rleB     int
	pageRuns int // runs closed in the current page
	runLen   int
	prev     relation.Value // last non-null cell
	prevB    int            // its payload bytes

	dict     dictIndex
	dictOff  bool // mixed column or too many distinct values
	dictValB int
	dictIdxB int
	prevID   int

	pageNulls []bool // per closed page: whether it held a null cell
	nullsHere bool
}

// Add sizes one cell.
func (s *Sizer) Add(v relation.Value) {
	if v.K == relation.KindNull {
		s.nulls, s.nullsHere = true, true
		return
	}
	if s.kind == relation.KindNull {
		s.kind = v.K
	} else if s.kind != v.K {
		s.mixed = true
		s.dictOff = true
	}
	vb := valueBytes(v)
	s.rawB += vb
	if s.runLen > 0 && valueSameBits(s.prev, v) {
		s.runLen++
	} else {
		s.closeRun()
		s.runLen = 1
	}
	s.prev, s.prevB = v, vb
	if s.dictOff || v.K == relation.KindBool {
		return
	}
	id, added, full := s.dict.id(v, maxDictBuild)
	if full {
		s.dictOff = true
		return
	}
	if added {
		s.dictValB += vb
	}
	s.dictIdxB += uvarintLen(uint64(id))
	s.prevID = id
}

// Repeat sizes one more cell bitwise-equal to the last non-null cell
// Add saw (the caller has compared them), without hashing it.
func (s *Sizer) Repeat() {
	s.rawB += s.prevB
	if s.runLen == 0 {
		s.runLen = 1 // first cell of a page: a new run
	} else {
		s.runLen++
	}
	if !s.dictOff && s.kind != relation.KindBool {
		s.dictIdxB += uvarintLen(uint64(s.prevID))
	}
}

func (s *Sizer) closeRun() {
	if s.runLen > 0 {
		s.rleB += uvarintLen(uint64(s.runLen)) + s.prevB
		s.pageRuns++
		s.runLen = 0
	}
}

// EndPage closes the current page: its open run ends, and its run
// count is sized. Call it after each page's cells, including the last.
func (s *Sizer) EndPage() {
	s.closeRun()
	s.rleB += uvarintLen(uint64(s.pageRuns))
	s.pageRuns = 0
	s.pageNulls = append(s.pageNulls, s.nullsHere)
	s.nullsHere = false
}

// Kind returns the homogeneous kind of the non-null cells (KindNull when
// there are none), whether the kinds were mixed, and whether any cell
// was null.
func (s *Sizer) Kind() (kind relation.Kind, mixed, nulls bool) { return s.kind, s.mixed, s.nulls }

// costs returns the payload bytes of the raw, dictionary and run-length
// representations (tag bytes and null bitmaps excluded: all three share
// them). A column that cannot be dictionary-encoded reports an
// unreachable dictionary cost.
func (s *Sizer) costs() (rawB, dictB, rleB int) {
	dictB = math.MaxInt
	if !s.dictOff {
		dictB = uvarintLen(uint64(s.dict.n)) + s.dictValB + s.dictIdxB
	}
	return s.rawB, dictB, s.rleB
}

// Choose returns the strictly smallest encoding: raw on ties, and
// always raw for mixed, all-null and bool columns.
func (s *Sizer) Choose() Encoding {
	if s.mixed || s.kind == relation.KindNull || s.kind == relation.KindBool {
		return EncRaw
	}
	rawB, dictB, rleB := s.costs()
	enc, best := EncRaw, rawB
	if dictB < best {
		enc, best = EncDict, dictB
	}
	if rleB < best {
		enc = EncRLE
	}
	return enc
}

// buildDict assigns first-appearance dictionary ids to the non-null
// cells of column ci, reusing the previous id across runs, and returns
// the distinct values and one id per non-null cell. d may already hold
// the column's ids (a Sizer's index over the same cells, which assigned
// them in the same order); ids new to d are added.
func buildDict(rows []relation.Row, ci int, d *dictIndex) (vals []relation.Value, ids []int) {
	ids = make([]int, 0, len(rows))
	var prev relation.Value
	prevID := -1
	for _, r := range rows {
		v := r[ci]
		if v.K == relation.KindNull {
			continue
		}
		if prevID >= 0 && valueSameBits(prev, v) {
			ids = append(ids, prevID)
			continue
		}
		id, _, _ := d.id(v, math.MaxInt)
		if id == len(vals) {
			vals = append(vals, v) // first appearance
		}
		ids = append(ids, id)
		prev, prevID = v, id
	}
	return vals, ids
}

// sizeColumn runs a Sizer over column ci as one page.
func sizeColumn(rows []relation.Row, ci int) *Sizer {
	s := new(Sizer)
	for _, r := range rows {
		s.Add(r[ci])
	}
	s.EndPage()
	return s
}

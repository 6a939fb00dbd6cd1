// Footer answers: computing, from a segment's footer alone, the exact
// partial-aggregate row a PartialAgg op would emit over the segment's
// rows, so an aggregate over the segment decodes no chunk. The contract
// (docs/STORAGE.md) is the one pruning keeps: answer only what the
// footer *proves*, down to the bits of each cell, and decode on any
// doubt. The answered row must be the row engine.applyPartialAgg emits
// for the segment: same key Value, same cell kinds, same column order.
// The difftest query invariant holds answered aggregates bitwise-equal
// to the oracle over a full scan, so an unsound rule here is caught by a
// seeded counterexample.
//
// A segment answers only when every group key and every aggregate is
// pinned:
//
//   - The segment has rows and a v2 footer (v1 footers did not record
//     the cell kinds, see ZoneMap.FloatsOnly/IntsOnly).
//   - A group key must be single-valued, so the whole segment is one
//     group and its key is any cell. A string key needs Strs == rows
//     and SMin == SMax, giving Str(SMin). An int key needs every cell
//     an int (IntsOnly, NumKind == rows) and FMin == FMax, inside the
//     exact-int range below. Other keys fall back: float keys in
//     particular, where -0 and +0 satisfy FMin == FMax but group apart
//     ("-0" and "0" render differently).
//   - count(*) is Int(rows).
//   - min/max over an all-null column is Null, as the partial emits for
//     a group with no non-null cell. Otherwise every non-null cell must
//     be an int/float (NumKind == non-null count, so no string, bool or
//     bytes cell compares in another class) and none NaN (a NaN compares
//     equal to everything, so whether it sticks depends on its position,
//     which the footer does not record). Then FMin/FMax is the extreme:
//     Float(FMin) when every cell is a float (FloatsOnly), Int(FMin)
//     when every cell is an int (IntsOnly) and |FMin| < 2^53, where
//     float64 still holds every int exactly. A column mixing ints and
//     floats falls back: the extreme's kind is unknown.
//   - sum and mean never answer; their partials need sums the footer
//     does not keep.
//   - Every scanned column's string and byte payload is proved too, so
//     the engine can size the rows it did not decode and keep the
//     decoding path's broadcast/shuffle choice: none when every
//     non-null cell is an int or a float, rows × len(SMin) when every
//     cell is the same string. Group keys and answered min/max columns
//     always qualify; any other scanned column must as well.
//
// Ties: the cell kept is the FIRST of the cells comparing equal to the
// extreme, both in the zone accumulator (f < FMin, f > FMax) and in the partial
// aggregate (Value.Compare's strict < and >). So a float column holding
// -0 and +0 answers the one that came first, as the decode would.
package segstore

import (
	"math"

	"ivnt/internal/engine"
	"ivnt/internal/relation"
)

// maxExactInt bounds the ints float64 holds exactly: every int with
// |i| < 2^53 converts without rounding, and no larger one converts to a
// float inside that range.
const maxExactInt = 1 << 53

// footerPartial returns the partial-aggregate row PartialAgg(groupBy,
// aggs) would emit over the segment's cols (nil: every column), and the
// payload bytes of those cells, or ok=false when the footer cannot pin
// them exactly.
func footerPartial(foot *footer, cols, groupBy []string, aggs []engine.AggSpec) (row relation.Row, payload int64, ok bool) {
	if foot.version < 2 || foot.rows == 0 {
		return nil, 0, false
	}
	if cols == nil {
		for _, c := range foot.cols {
			cols = append(cols, c.name)
		}
	}
	for _, name := range cols {
		c := foot.col(name)
		if c == nil {
			return nil, 0, false
		}
		n, ok := cellPayload(c.zone, foot.rows)
		if !ok {
			return nil, 0, false
		}
		payload += n
	}
	row = make(relation.Row, 0, len(groupBy)+len(aggs))
	for _, g := range groupBy {
		c := foot.col(g)
		if c == nil {
			return nil, 0, false
		}
		v, ok := pinnedKey(c.zone, foot.rows)
		if !ok {
			return nil, 0, false
		}
		row = append(row, v)
	}
	for _, a := range aggs {
		switch a.Fn {
		case engine.AggCount:
			row = append(row, relation.Int(int64(foot.rows)))
		case engine.AggMin, engine.AggMax:
			c := foot.col(a.Col)
			if c == nil {
				return nil, 0, false
			}
			v, ok := zoneExtreme(c.zone, foot.rows, a.Fn == engine.AggMin)
			if !ok {
				return nil, 0, false
			}
			row = append(row, v)
		default:
			return nil, 0, false
		}
	}
	return row, payload, true
}

// cellPayload returns the string and byte payload of a column's cells,
// as engine.RowsFootprint counts it, when the zone proves it.
func cellPayload(z ZoneMap, rows int) (int64, bool) {
	switch {
	case z.Strs == 0 && z.NumKind == rows-z.Nulls:
		return 0, true
	case z.Strs == rows && z.SHas && z.SMin == z.SMax:
		return int64(rows) * int64(len(z.SMin)), true
	}
	return 0, false
}

// pinnedKey returns the one value every cell of a single-valued key
// column holds.
func pinnedKey(z ZoneMap, rows int) (relation.Value, bool) {
	switch {
	case z.Strs == rows && z.SHas && z.SMin == z.SMax:
		return relation.Str(z.SMin), true
	case z.IntsOnly && z.NumKind == rows && z.NaNs == 0 && z.FHas && z.FMin == z.FMax && exactInt(z.FMin):
		return relation.Int(int64(z.FMin)), true
	}
	return relation.Value{}, false
}

// zoneExtreme returns the column's first minimum (min) or first maximum
// cell as the partial aggregate keeps it.
func zoneExtreme(z ZoneMap, rows int, min bool) (relation.Value, bool) {
	nonNull := rows - z.Nulls
	if nonNull == 0 {
		return relation.Null(), true
	}
	if z.NumKind != nonNull || z.NaNs != 0 || !z.FHas {
		return relation.Value{}, false
	}
	f := z.FMax
	if min {
		f = z.FMin
	}
	switch {
	case z.FloatsOnly:
		return relation.Float(f), true
	case z.IntsOnly && exactInt(f):
		return relation.Int(int64(f)), true
	}
	return relation.Value{}, false
}

func exactInt(f float64) bool { return math.Abs(f) < maxExactInt && f == math.Trunc(f) }

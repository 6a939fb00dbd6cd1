// Pages: the v3 segment's row-range index. Every column chunk is cut
// at the same row boundaries into pages of PageRows rows (the last one
// shorter), each page decodable on its own, and the footer keeps a zone
// map per page and column next to the segment zone. A scan whose pushed
// filter a page's zones refute skips that page's bytes in every column
// (see prune.go for the rules, which are the segment rules applied per
// page). Segments are one signal of one journey, with rows in time
// order, so a time window touches a few consecutive pages.
package segstore

import (
	"math"

	"ivnt/internal/colcodec"
	"ivnt/internal/engine"
	"ivnt/internal/relation"
)

// PageRows is the page size of every v3 segment. It was chosen by
// measuring the e2ebench fleet-syn workload at 256, 512, 1024 and 2048
// rows (docs/PERFORMANCE.md, "Page index"): smaller pages cut the rows
// a 2 s point window decodes, larger ones the footer and per-page
// payload overhead in stored bytes per row.
const PageRows = 512

// zoneAcc builds a ZoneMap one cell at a time (the counts and bounds
// ZoneMap documents; first of equal bounds kept). last* remember how the last non-null cell was counted, so repeat can
// count a bitwise-equal cell again without classifying it (numeric
// strings would otherwise be parsed once per cell).
type zoneAcc struct {
	z      ZoneMap
	floats int

	lastNum, lastFloat, lastStr, lastOrd, lastNaN bool
}

func (a *zoneAcc) add(v relation.Value) {
	z := &a.z
	if v.K == relation.KindNull {
		z.Nulls++
		return
	}
	a.lastNum = v.K == relation.KindInt || v.K == relation.KindFloat
	a.lastFloat = v.K == relation.KindFloat
	a.lastStr = v.K == relation.KindString
	a.lastOrd, a.lastNaN = false, false
	if a.lastNum {
		z.NumKind++
		if a.lastFloat {
			a.floats++
		}
	}
	if a.lastStr {
		z.Strs++
		if !z.SHas || v.S < z.SMin {
			z.SMin = v.S
		}
		if !z.SHas || v.S > z.SMax {
			z.SMax = v.S
		}
		z.SHas = true
	}
	if v.IsNumeric() {
		a.lastOrd = true
		z.NumOrd++
		f := v.AsFloat()
		if math.IsNaN(f) {
			a.lastNaN = true
			z.NaNs++
			return
		}
		if !z.FHas || f < z.FMin {
			z.FMin = f
		}
		if !z.FHas || f > z.FMax {
			z.FMax = f
		}
		z.FHas = true
	}
}

// repeat counts one more cell bitwise-equal to the last non-null cell
// add saw: the counts move as they did for it, and the bounds, which
// already cover it, stay.
func (a *zoneAcc) repeat() {
	z := &a.z
	if a.lastNum {
		z.NumKind++
		if a.lastFloat {
			a.floats++
		}
	}
	if a.lastStr {
		z.Strs++
	}
	if a.lastOrd {
		z.NumOrd++
		if a.lastNaN {
			z.NaNs++
		}
	}
}

// zone returns the finished zone map.
func (a *zoneAcc) zone() ZoneMap {
	z := a.z
	z.FloatsOnly = z.NumKind > 0 && a.floats == z.NumKind
	z.IntsOnly = z.NumKind > 0 && a.floats == 0
	return z
}

// mergeZone folds page zone p into the segment zone z, page by page in
// row order. Strict comparisons keep the first of equal bounds, as one
// zoneAcc over the whole column would, so merging a column's page zones
// gives exactly its segment zone.
func mergeZone(z *ZoneMap, p ZoneMap, first bool) {
	if first {
		*z = p
		return
	}
	numKind := z.NumKind
	z.Nulls += p.Nulls
	z.NumKind += p.NumKind
	z.NumOrd += p.NumOrd
	z.NaNs += p.NaNs
	z.Strs += p.Strs
	if p.FHas {
		if !z.FHas || p.FMin < z.FMin {
			z.FMin = p.FMin
		}
		if !z.FHas || p.FMax > z.FMax {
			z.FMax = p.FMax
		}
		z.FHas = true
	}
	if p.SHas {
		if !z.SHas || p.SMin < z.SMin {
			z.SMin = p.SMin
		}
		if !z.SHas || p.SMax > z.SMax {
			z.SMax = p.SMax
		}
		z.SHas = true
	}
	switch {
	case p.NumKind == 0:
	case numKind == 0:
		z.FloatsOnly, z.IntsOnly = p.FloatsOnly, p.IntsOnly
	default:
		z.FloatsOnly = z.FloatsOnly && p.FloatsOnly
		z.IntsOnly = z.IntsOnly && p.IntsOnly
	}
}

// columnStats is the one statistics pass over a column that a seal
// makes: the segment zone and the chunk encoding's sizes (the page
// zones go to the caller's slice), from one visit per cell.
type columnStats struct {
	zone  ZoneMap
	sizer colcodec.Sizer
}

// scanColumn makes columnStats's pass over column ci, with pages of
// pageRows rows, writing page p's zone to pages[p]. A cell
// bitwise-equal to the previous non-null cell of its page takes the
// repeat path of both accumulators.
func scanColumn(rows []relation.Row, ci, pageRows int, pages []ZoneMap) *columnStats {
	cs := new(columnStats)
	for p := 0; p*pageRows < len(rows); p++ {
		var acc zoneAcc
		var prev relation.Value
		have := false
		for _, r := range rows[p*pageRows : min((p+1)*pageRows, len(rows))] {
			v := r[ci]
			if have && v.K != relation.KindNull && colcodec.SameBits(prev, v) {
				acc.repeat()
				cs.sizer.Repeat()
				continue
			}
			acc.add(v)
			cs.sizer.Add(v)
			if v.K != relation.KindNull {
				prev, have = v, true
			}
		}
		cs.sizer.EndPage()
		pages[p] = acc.zone()
		mergeZone(&cs.zone, pages[p], p == 0)
	}
	return cs
}

// pageSelection returns the row ranges of the pages whose zones leave
// every conjunct satisfiable, adjacent pages merged, and how many pages
// it dropped. A page is dropped only when its zone proves some conjunct
// false for each of its rows; the stage's Filter still runs on the rest.
func pageSelection(cs []conjunct, foot *footer) (ranges []engine.RowRange, dropped int) {
	ranges = []engine.RowRange{}
	for _, pg := range foot.pages {
		if pagePruned(cs, foot, pg) {
			dropped++
			continue
		}
		if n := len(ranges); n > 0 && ranges[n-1].Hi == pg.start {
			ranges[n-1].Hi = pg.start + pg.rows
		} else {
			ranges = append(ranges, engine.RowRange{Lo: pg.start, Hi: pg.start + pg.rows})
		}
	}
	return ranges, dropped
}

func pagePruned(cs []conjunct, foot *footer, pg pageMeta) bool {
	for _, c := range cs {
		ci := foot.colIndex(c.col)
		if ci < 0 {
			continue
		}
		if !satisfiable(c, pg.cols[ci].zone, pg.rows) {
			return true
		}
	}
	return false
}

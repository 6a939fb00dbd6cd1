// Package difftest is the differential-correctness harness: a seeded
// workload generator (random schemas, random typed relations with
// nulls, random valid operator trees), a canonicalizing result differ,
// and a harness that executes every workload on the naive oracle
// (internal/oracle), the multi-core local executor and a real TCP
// cluster, then checks five metamorphic invariants on top. A mismatch
// anywhere prints the workload's seed and operator tree, so every
// failure replays with
//
//	go test ./internal/difftest/ -run Differential -difftest.seed=<seed>
//
// See docs/TESTING.md for the full tier description.
package difftest

import (
	"fmt"
	"math/rand"
	"strings"

	"ivnt/internal/engine"
	"ivnt/internal/relation"
	"ivnt/internal/rules"
)

// Workload is one generated differential test case: a typed relation
// and a valid operator tree over it, plus the sensitivity flags the
// metamorphic invariants consult.
type Workload struct {
	Seed   int64
	Schema relation.Schema
	Rows   []relation.Row
	Ops    []engine.OpDesc

	// UsesWindow marks plans whose expressions read lag history —
	// results then legitimately depend on how rows are partitioned.
	UsesWindow bool
	// HasDedup marks plans containing OpDedupConsecutive, whose output
	// depends on which rows are adjacent.
	HasDedup bool
}

// DistributionFree reports whether the plan's output multiset is fully
// determined by the input multiset — the precondition for the
// partition-count and row-order invariances. SortWithin and PartialAgg
// stay distribution-free because the harness compares canonically and
// merges partials before comparing.
func (w *Workload) DistributionFree() bool { return !w.UsesWindow && !w.HasDedup }

// TerminalAgg returns the group-by parameters when the plan ends in a
// partial aggregation (the generator only ever places it last).
func (w *Workload) TerminalAgg() (groupBy []string, aggs []engine.AggSpec, ok bool) {
	if len(w.Ops) == 0 {
		return nil, nil, false
	}
	last := w.Ops[len(w.Ops)-1]
	if last.Kind != engine.OpPartialAgg {
		return nil, nil, false
	}
	return last.GroupBy, last.Aggs, true
}

// FormatOps renders an operator tree for failure reports.
func FormatOps(ops []engine.OpDesc) string {
	var b strings.Builder
	for i, op := range ops {
		fmt.Fprintf(&b, "  %2d %-16s", i, op.Kind)
		switch op.Kind {
		case engine.OpFilter, engine.OpAddColumn:
			if op.Col != "" {
				fmt.Fprintf(&b, "%s:%s = ", op.Col, op.ColKind)
			}
			b.WriteString(op.Expr)
		case engine.OpInterpret:
			j := op.Join
			fmt.Fprintf(&b, "on %v=%v table[%d rows]", j.LeftKeys, j.RightKeys, len(j.Rows))
			for _, r := range j.Rows {
				fmt.Fprintf(&b, "\n%22s%s", "", fmtRow(r))
			}
		case engine.OpProject, engine.OpDedupConsecutive, engine.OpSortWithin:
			b.WriteString(strings.Join(op.Cols, ", "))
		case engine.OpBroadcastJoin:
			j := op.Join
			fmt.Fprintf(&b, "on %v=%v table%s[%d rows]", j.LeftKeys, j.RightKeys, j.Schema, len(j.Rows))
		case engine.OpPartialAgg:
			fmt.Fprintf(&b, "by %v:", op.GroupBy)
			for _, a := range op.Aggs {
				fmt.Fprintf(&b, " %s=%s(%s)", a.As, a.Fn, a.Col)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// colMeta tracks generator knowledge about a column that outlives
// schema transforms: whether its cells are guaranteed numeric-or-null
// (safe to sum) and whether it is a low-cardinality original column
// (safe and useful as a join/group key).
type colMeta struct {
	numericSafe bool
	keyable     bool
}

// gen carries the generator state for one workload.
type gen struct {
	rng  *rand.Rand
	cur  relation.Schema
	meta map[string]colMeta
	// pools holds per-column low-cardinality value pools, shared
	// between row generation and broadcast-table generation so joins
	// actually match.
	pools map[string][]relation.Value

	allowWindow bool
	usedWindow  bool
	hasDedup    bool

	derived, joins int  // fresh-name counters
	interpreted    bool // OpInterpret's output names are fixed: once per workload
}

var wordPool = []string{"amber", "brake", "cruise", "door", "ecu", "flash", "gear", "horn"}

// Generate builds the workload for one seed. Identical seeds produce
// identical workloads on every platform (math/rand with a fixed
// source), which is what makes printed seeds reproducible.
func Generate(seed int64) *Workload {
	rng := rand.New(rand.NewSource(seed))
	g := &gen{
		rng:         rng,
		meta:        map[string]colMeta{},
		pools:       map[string][]relation.Value{},
		allowWindow: rng.Float64() < 0.3,
	}
	w := &Workload{Seed: seed}
	w.Schema = g.genSchema()
	g.cur = w.Schema
	w.Rows = g.genRows(w.Schema)
	w.Ops = g.genOps(w.Schema)
	w.UsesWindow = g.usedWindow
	w.HasDedup = g.hasDedup

	// Every generated tree must be valid against the engine's schema
	// checker; anything else is a generator bug, not a test failure.
	if _, err := engine.OutputSchema(w.Schema, w.Ops); err != nil {
		panic(fmt.Sprintf("difftest: generated invalid plan (seed %d): %v\n%s", seed, err, FormatOps(w.Ops)))
	}
	return w
}

// genSchema picks 3..7 columns, guaranteeing at least one int, one
// float and one string column so every op kind has material to work on.
func (g *gen) genSchema() relation.Schema {
	kinds := []relation.Kind{relation.KindInt, relation.KindFloat, relation.KindString}
	extra := g.rng.Intn(5)
	all := []relation.Kind{relation.KindInt, relation.KindFloat, relation.KindString, relation.KindBool, relation.KindBytes}
	for i := 0; i < extra; i++ {
		kinds = append(kinds, all[g.rng.Intn(len(all))])
	}
	g.rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })

	cols := make([]relation.Column, len(kinds))
	for i, k := range kinds {
		name := fmt.Sprintf("c%d", i)
		cols[i] = relation.Column{Name: name, Kind: k}
		m := colMeta{numericSafe: k == relation.KindInt || k == relation.KindFloat}
		// Low-cardinality pools for non-float columns: join keys, group
		// keys and dedup runs all need repeated values to be
		// interesting. Pool strings are non-empty so a null key ("")
		// can never collide with a real one.
		lowCard := k != relation.KindFloat && k != relation.KindBytes && g.rng.Float64() < 0.6
		if lowCard {
			m.keyable = true
			g.pools[name] = g.genPool(k)
		}
		g.meta[name] = m
	}
	return relation.NewSchema(cols...)
}

func (g *gen) genPool(k relation.Kind) []relation.Value {
	n := 2 + g.rng.Intn(3)
	pool := make([]relation.Value, n)
	for i := range pool {
		switch k {
		case relation.KindInt:
			pool[i] = relation.Int(int64(g.rng.Intn(11) - 5))
		case relation.KindBool:
			pool[i] = relation.Bool(g.rng.Intn(2) == 0)
		default:
			pool[i] = relation.Str(wordPool[g.rng.Intn(len(wordPool))])
		}
	}
	return pool
}

// genRows fills the relation: mostly 20..260 rows, sometimes 0..2 rows
// (the empty and near-empty regressions), ~10% nulls, and a 25% chance
// per row of repeating its predecessor so DedupConsecutive has runs to
// collapse.
func (g *gen) genRows(s relation.Schema) []relation.Row {
	var n int
	if g.rng.Float64() < 0.1 {
		n = g.rng.Intn(3)
	} else {
		n = 20 + g.rng.Intn(241)
	}
	rows := make([]relation.Row, n)
	for i := range rows {
		if i > 0 && g.rng.Float64() < 0.25 {
			rows[i] = rows[i-1].Clone()
			continue
		}
		r := make(relation.Row, s.Len())
		for ci, c := range s.Cols {
			if g.rng.Float64() < 0.1 {
				r[ci] = relation.Null()
				continue
			}
			if pool := g.pools[c.Name]; pool != nil {
				r[ci] = pool[g.rng.Intn(len(pool))]
				continue
			}
			r[ci] = g.genValue(c.Kind)
		}
		rows[i] = r
	}
	return rows
}

// genValue draws a random cell. Floats are sixteenths of small
// integers, so they are exactly representable and partial sums stay
// well inside float64's exact-integer range — cross-partitioning sum
// differences then come only from association order, which the
// canonical comparator tolerates.
func (g *gen) genValue(k relation.Kind) relation.Value {
	switch k {
	case relation.KindInt:
		return relation.Int(int64(g.rng.Intn(2001) - 1000))
	case relation.KindFloat:
		return relation.Float(float64(g.rng.Intn(32001)-16000) / 16)
	case relation.KindString:
		w := wordPool[g.rng.Intn(len(wordPool))]
		return relation.Str(w[:g.rng.Intn(len(w)+1)])
	case relation.KindBool:
		return relation.Bool(g.rng.Intn(2) == 0)
	case relation.KindBytes:
		b := make([]byte, g.rng.Intn(9))
		for i := range b {
			b[i] = byte(g.rng.Intn(256))
		}
		return relation.Bytes(b)
	default:
		return relation.Null()
	}
}

// genOps builds 1..6 operators; OpPartialAgg, when drawn, terminates
// the tree (the engine treats partials as a stage's reduce boundary).
func (g *gen) genOps(in relation.Schema) []engine.OpDesc {
	nOps := 1 + g.rng.Intn(6)
	var ops []engine.OpDesc
	push := func(op engine.OpDesc) {
		ops = append(ops, op)
		next, err := engine.OutputSchema(in, ops)
		if err != nil {
			panic(fmt.Sprintf("difftest: op %s invalid: %v", op.Kind, err))
		}
		g.cur = next
	}
	for len(ops) < nOps {
		switch g.rng.Intn(10) {
		case 0, 1:
			push(engine.Filter(g.genExpr(tBool, 2, exprOpts{window: g.allowWindow})))
		case 2:
			if cols := g.projectCols(); cols != nil {
				push(engine.Project(cols...))
			}
		case 3, 4:
			name := fmt.Sprintf("d%d", g.derived)
			g.derived++
			push(g.genAddColumn(name))
		case 5:
			for _, op := range g.genInterpret() {
				push(op)
			}
		case 6:
			if op, ok := g.genJoin(); ok {
				push(op)
			}
		case 7:
			push(engine.DedupConsecutive(g.someCols(1, 3)...))
			g.hasDedup = true
		case 8:
			push(engine.SortWithin(g.someCols(1, 2)...))
		case 9:
			if op, ok := g.genPartialAgg(); ok {
				push(op)
				return ops // partial aggregation is always terminal
			}
		}
	}
	return ops
}

// projectCols keeps a random non-empty subset of the current columns in
// a random order.
func (g *gen) projectCols() []string {
	names := g.cur.Names()
	g.rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	keep := 1 + g.rng.Intn(len(names))
	return names[:keep]
}

// someCols picks between min and max distinct current columns.
func (g *gen) someCols(min, max int) []string {
	names := g.cur.Names()
	g.rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	n := min + g.rng.Intn(max-min+1)
	if n > len(names) {
		n = len(names)
	}
	return names[:n]
}

func (g *gen) genAddColumn(name string) engine.OpDesc {
	roll := g.rng.Float64()
	switch {
	case roll < 0.6:
		src := g.genExpr(tNum, 2, exprOpts{window: g.allowWindow})
		g.meta[name] = colMeta{numericSafe: true}
		return engine.AddColumn(name, relation.KindFloat, src)
	case roll < 0.85:
		src := g.genExpr(tStr, 2, exprOpts{})
		g.meta[name] = colMeta{}
		return engine.AddColumn(name, relation.KindString, src)
	default:
		src := g.genExpr(tBool, 2, exprOpts{window: g.allowWindow})
		g.meta[name] = colMeta{}
		return engine.AddColumn(name, relation.KindBool, src)
	}
}

// interpRules are the u₂ rule shapes genInterpret draws from: numeric
// bit extractions, a value-table lookup and the empty rule (→ null).
var interpRules = []string{
	"ubits(lrel, 0, 8) * 0.5",
	"sbits(lrel, 4, 12) + 1.0",
	"byteat(lrel, 1)",
	"lookup(ubits(lrel, 0, 2), '0=off;1=on')",
	"",
}

// genInterpret derives K_b's columns (t, bid, mid, l) from the current
// schema and interprets them under a small random translation table:
// duplicate (bid, mid) keys fan out, unmatched keys drop rows, and byte
// ranges past a short payload make u₁ null. It needs a bytes column
// for l and, since its output names are fixed, runs once per workload.
func (g *gen) genInterpret() []engine.OpDesc {
	if g.interpreted {
		return nil
	}
	payload := g.colsWhere(func(name string) bool { return g.cur.Cols[g.cur.Index(name)].Kind == relation.KindBytes })
	if len(payload) == 0 {
		return nil
	}
	g.interpreted = true
	channels := []string{"amber", "brake"}
	ts := make([]rules.Translation, 1+g.rng.Intn(5))
	sids := make([]relation.Value, len(ts))
	numeric := true
	for i := range ts {
		first := g.rng.Intn(5)
		ts[i] = rules.Translation{
			SID:     fmt.Sprintf("s%d", i),
			Channel: channels[g.rng.Intn(2)], MsgID: uint32(1 + g.rng.Intn(2)),
			FirstByte: first, LastByte: first + g.rng.Intn(4),
			Rule: interpRules[g.rng.Intn(len(interpRules))],
		}
		sids[i] = relation.Str(ts[i].SID)
		numeric = numeric && !strings.HasPrefix(ts[i].Rule, "lookup")
	}
	ops := []engine.OpDesc{
		engine.AddColumn("t", relation.KindFloat, g.genExpr(tNum, 1, exprOpts{})),
		engine.AddColumn("bid", relation.KindString, fmt.Sprintf("iff(%s, 'amber', 'brake')", g.genExpr(tBool, 1, exprOpts{}))),
		engine.AddColumn("mid", relation.KindInt, fmt.Sprintf("iff(%s, 1, 2)", g.genExpr(tBool, 1, exprOpts{}))),
		engine.AddColumn("l", relation.KindBytes, payload[g.rng.Intn(len(payload))]),
		engine.Interpret(ts),
	}
	g.meta["t"] = colMeta{numericSafe: true}
	g.meta["sid"] = colMeta{keyable: true}
	g.pools["sid"] = sids
	g.meta["v"] = colMeta{numericSafe: numeric}
	g.meta["bid"] = colMeta{keyable: true}
	g.pools["bid"] = []relation.Value{relation.Str(channels[0]), relation.Str(channels[1])}
	return ops
}

// genJoin builds a broadcast join on 1..2 keyable columns. Table key
// values come from the same pools as the stream, so matches, misses
// and fan-out (duplicate table keys) all occur; tables are sometimes
// empty.
func (g *gen) genJoin() (engine.OpDesc, bool) {
	var keys []string
	for _, name := range g.cur.Names() {
		if g.meta[name].keyable {
			keys = append(keys, name)
		}
	}
	if len(keys) == 0 {
		return engine.OpDesc{}, false
	}
	g.rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	nk := 1
	if len(keys) > 1 && g.rng.Float64() < 0.3 {
		nk = 2
	}
	keys = keys[:nk]

	cols := make([]relation.Column, 0, nk+2)
	rightKeys := make([]string, nk)
	for i, k := range keys {
		rightKeys[i] = fmt.Sprintf("jk%d_%d", g.joins, i)
		cols = append(cols, relation.Column{Name: rightKeys[i], Kind: g.cur.Cols[g.cur.Index(k)].Kind})
	}
	nv := 1 + g.rng.Intn(2)
	valKinds := []relation.Kind{relation.KindInt, relation.KindFloat, relation.KindString, relation.KindBool}
	valNames := make([]string, nv)
	for i := 0; i < nv; i++ {
		valNames[i] = fmt.Sprintf("jv%d_%d", g.joins, i)
		cols = append(cols, relation.Column{Name: valNames[i], Kind: valKinds[g.rng.Intn(len(valKinds))]})
	}
	g.joins++

	tschema := relation.NewSchema(cols...)
	nrows := g.rng.Intn(9) // sometimes zero: the empty-table join
	trows := make([]relation.Row, nrows)
	for ri := range trows {
		r := make(relation.Row, tschema.Len())
		for i, k := range keys {
			if g.rng.Float64() < 0.1 {
				r[i] = relation.Null()
			} else if pool := g.pools[k]; pool != nil {
				r[i] = pool[g.rng.Intn(len(pool))]
			} else {
				r[i] = g.genValue(tschema.Cols[i].Kind)
			}
		}
		for i := nk; i < tschema.Len(); i++ {
			if g.rng.Float64() < 0.15 {
				r[i] = relation.Null()
			} else {
				r[i] = g.genValue(tschema.Cols[i].Kind)
			}
		}
		trows[ri] = r
	}
	for i, vn := range valNames {
		k := tschema.Cols[nk+i].Kind
		g.meta[vn] = colMeta{numericSafe: k == relation.KindInt || k == relation.KindFloat}
	}
	table := relation.FromRows(tschema, trows)
	return engine.BroadcastJoin(table, keys, rightKeys), true
}

// genPartialAgg groups by 1..2 keyable columns with 1..3 aggregates.
// Sum and mean are restricted to numeric-safe columns (summing
// arbitrary strings would inject NaNs); min/max/count take any column.
func (g *gen) genPartialAgg() (engine.OpDesc, bool) {
	var keys, numeric []string
	for _, name := range g.cur.Names() {
		if g.meta[name].keyable {
			keys = append(keys, name)
		}
		if g.meta[name].numericSafe {
			numeric = append(numeric, name)
		}
	}
	if len(keys) == 0 {
		return engine.OpDesc{}, false
	}
	g.rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	nk := 1
	if len(keys) > 1 && g.rng.Float64() < 0.4 {
		nk = 2
	}
	groupBy := keys[:nk]

	all := g.cur.Names()
	nAggs := 1 + g.rng.Intn(3)
	aggs := make([]engine.AggSpec, 0, nAggs)
	for i := 0; i < nAggs; i++ {
		as := fmt.Sprintf("a%d", i)
		fns := []engine.AggFunc{engine.AggCount, engine.AggMin, engine.AggMax}
		if len(numeric) > 0 {
			fns = append(fns, engine.AggSum, engine.AggMean)
		}
		fn := fns[g.rng.Intn(len(fns))]
		col := ""
		switch fn {
		case engine.AggCount:
		case engine.AggSum, engine.AggMean:
			col = numeric[g.rng.Intn(len(numeric))]
		default:
			col = all[g.rng.Intn(len(all))]
		}
		aggs = append(aggs, engine.AggSpec{Fn: fn, Col: col, As: as})
	}
	return engine.PartialAgg(groupBy, aggs), true
}

// Package assoc implements Association Rule Mining over the state
// representation (Sec. 4.4): each state row is an item-set of
// signal=value items; Apriori finds frequent item-sets and derives
// IF-THEN rules such as "IF T < -10 AND WiperActivated THEN
// WiperErrorBlocked".
package assoc

import (
	"math/bits"
	"sort"
	"strconv"
	"strings"

	"ivnt/internal/staterep"
)

// Item is one signal=value condition.
type Item struct {
	Signal string
	Value  string
}

// String renders "signal=value".
func (it Item) String() string { return it.Signal + "=" + it.Value }

// Rule is one mined IF-THEN rule.
type Rule struct {
	// Antecedent items, sorted.
	Antecedent []Item
	// Consequent is the single-item conclusion.
	Consequent Item
	// Support is the fraction of states containing antecedent ∪
	// consequent; Confidence is support(rule)/support(antecedent).
	Support    float64
	Confidence float64
	// Count is the absolute co-occurrence count.
	Count int
}

// String renders "IF a=x AND b=y THEN c=z (sup=…, conf=…)", the
// numbers as %.3f. It appends with strconv rather than fmt: Mine
// renders every rule it returns to order them.
func (r Rule) String() string {
	b := []byte("IF ")
	for i, it := range r.Antecedent {
		if i > 0 {
			b = append(b, " AND "...)
		}
		b = append(b, it.String()...)
	}
	b = append(append(b, " THEN "...), r.Consequent.String()...)
	b = strconv.AppendFloat(append(b, " (sup="...), r.Support, 'f', 3, 64)
	b = strconv.AppendFloat(append(b, ", conf="...), r.Confidence, 'f', 3, 64)
	return string(append(b, ')'))
}

// Options tune the miner.
type Options struct {
	// MinSupport in (0,1]; default 0.1.
	MinSupport float64
	// MinConfidence in (0,1]; default 0.8.
	MinConfidence float64
	// MaxItems bounds item-set size (antecedent + consequent);
	// default 3.
	MaxItems int
}

func (o Options) withDefaults() Options {
	if o.MinSupport <= 0 {
		o.MinSupport = 0.1
	}
	if o.MinConfidence <= 0 {
		o.MinConfidence = 0.8
	}
	if o.MaxItems < 2 {
		o.MaxItems = 3
	}
	return o
}

// Mine runs Apriori over the state table and returns rules sorted by
// confidence then support, descending (deterministic).
//
// Counting is vertical: each distinct signal=value item is one bitset
// over the state rows, and an item-set's count is the popcount of the
// AND of its items' bitsets. Frequent item-sets are enumerated depth
// first in key order: a frequent set P+j is extended only by the items
// i after j for which P+i is frequent, so no set is counted twice and
// none whose subset P+i is already known to be rare. A state counts
// once per item even when two cells render the same signal=value key
// (a signal id may itself contain '=').
func Mine(tb *staterep.Table, opts Options) []Rule {
	opts = opts.withDefaults()
	n := tb.NumRows()
	if n == 0 {
		return nil
	}
	minCount := int(opts.MinSupport * float64(n))
	if minCount < 1 {
		minCount = 1
	}

	keys, bitsets := frequentItems(tb, minCount)
	items := make([]Item, len(keys))
	for i, k := range keys {
		items[i] = parseItem(k)
	}
	c := counter{
		bits:     bitsets,
		minCount: minCount,
		maxItems: opts.MaxItems,
		counts:   map[string]int{},
	}
	c.run()

	// Rule generation: single-item consequents from every frequent set
	// of size ≥ 2; every antecedent is itself a frequent set.
	var rules []Rule
	var key []byte
	ante := make([]int32, 0, opts.MaxItems)
	for _, s := range c.sets {
		for k := range s.items {
			ante = append(append(ante[:0], s.items[:k]...), s.items[k+1:]...)
			key = packKey(key[:0], ante)
			conf := float64(s.count) / float64(c.counts[string(key)])
			if conf < opts.MinConfidence {
				continue
			}
			r := Rule{
				Antecedent: make([]Item, len(ante)),
				Consequent: items[s.items[k]],
				Support:    float64(s.count) / float64(n),
				Confidence: conf,
				Count:      s.count,
			}
			for i, id := range ante {
				r.Antecedent[i] = items[id]
			}
			rules = append(rules, r)
		}
	}
	sortRules(rules)
	return rules
}

// frequentItems interns every known cell as a signal=value item and
// returns the items counted in at least minCount states, sorted by
// key, each with its bitset over the state rows (bit i = state i).
func frequentItems(tb *staterep.Table, minCount int) ([]string, [][]uint64) {
	n := tb.NumRows()
	// Pass 1: per-cell item ids and an upper bound of each item's
	// count. Each column renders a key once per distinct value; keys
	// shared by two columns share one id.
	ids := map[string]int32{}
	var keys []string
	var bound []int
	cells := make([]int32, n*len(tb.Signals))
	for j, sig := range tb.Signals {
		col := cells[j*n : (j+1)*n]
		byValue := map[string]int32{}
		for i := 0; i < n; i++ {
			v := tb.Cells[i][j]
			if v == staterep.Unknown {
				col[i] = -1
				continue
			}
			id, ok := byValue[v]
			if !ok {
				key := Item{Signal: sig, Value: v}.String()
				if id, ok = ids[key]; !ok {
					id = int32(len(keys))
					ids[key] = id
					keys = append(keys, key)
					bound = append(bound, 0)
				}
				byValue[v] = id
			}
			col[i] = id
			bound[id]++
		}
	}

	// Pass 2: bitsets only for the items that can be frequent; a table
	// of mostly distinct values would otherwise need an n-bit set per
	// cell. The exact count is the popcount: a state holding one key in
	// two columns sets its bit twice but counts once.
	words := (n + 63) / 64
	bitsets := make([][]uint64, len(keys))
	for id, b := range bound {
		if b >= minCount {
			bitsets[id] = make([]uint64, words)
		}
	}
	for j := range tb.Signals {
		for i, id := range cells[j*n : (j+1)*n] {
			if id >= 0 && bitsets[id] != nil {
				bitsets[id][i>>6] |= 1 << (i & 63)
			}
		}
	}
	var freq []int32
	for id, b := range bitsets {
		if b != nil && popcount(b) >= minCount {
			freq = append(freq, int32(id))
		}
	}
	sort.Slice(freq, func(a, b int) bool { return keys[freq[a]] < keys[freq[b]] })
	outKeys := make([]string, len(freq))
	outBits := make([][]uint64, len(freq))
	for i, id := range freq {
		outKeys[i], outBits[i] = keys[id], bitsets[id]
	}
	return outKeys, outBits
}

// itemSet is one frequent set of two or more items: ids into the
// key-sorted frequent items, ascending.
type itemSet struct {
	items []int32
	count int
}

// counter enumerates the frequent item-sets of up to maxItems items
// depth first over the frequent items' bitsets. A set P+j+i can only be
// frequent when P+i is, so the candidates extending P+j are the
// frequent extensions of P that follow j.
type counter struct {
	bits     [][]uint64
	minCount int
	maxItems int
	// sets holds every frequent set of two or more items; counts maps
	// the packed ids of every frequent set that can be an antecedent
	// (fewer than maxItems items) to its count.
	sets   []itemSet
	counts map[string]int
	// prefix is the set being extended; scratch[d-1] receives the rows
	// of a d-item prefix's extensions and next[d-1] lists its frequent
	// ones.
	prefix  []int32
	scratch [][]uint64
	next    [][]int32
	arena   []int32
	key     []byte
}

func (c *counter) run() {
	words := 0
	if len(c.bits) > 0 {
		words = len(c.bits[0])
	}
	for d := 1; d < c.maxItems; d++ {
		c.scratch = append(c.scratch, make([]uint64, words))
		c.next = append(c.next, nil)
	}
	all := make([]int32, len(c.bits))
	for id := range all {
		all[id] = int32(id)
	}
	for id, b := range c.bits {
		c.prefix = append(c.prefix[:0], int32(id))
		c.record(c.prefix, popcount(b))
		c.extend(b, all[id+1:])
	}
}

// extend counts c.prefix, whose rows are pbits, extended by each of
// cands, records the frequent extensions and recurses into them while
// they are shorter than maxItems.
func (c *counter) extend(pbits []uint64, cands []int32) {
	d := len(c.prefix)
	dst := c.scratch[d-1]
	next := c.next[d-1][:0]
	for _, j := range cands {
		if cnt := andInto(dst, pbits, c.bits[j]); cnt >= c.minCount {
			c.record(append(c.prefix, j), cnt)
			next = append(next, j)
		}
	}
	c.next[d-1] = next
	if d+1 == c.maxItems {
		return
	}
	for k, j := range next {
		andInto(dst, pbits, c.bits[j])
		c.prefix = append(c.prefix, j)
		c.extend(dst, next[k+1:])
		c.prefix = c.prefix[:d]
	}
}

// record stores set as a frequent set counted in cnt states.
func (c *counter) record(set []int32, cnt int) {
	if len(set) < c.maxItems {
		c.key = packKey(c.key[:0], set)
		c.counts[string(c.key)] = cnt
	}
	if len(set) >= 2 {
		start := len(c.arena)
		c.arena = append(c.arena, set...)
		c.sets = append(c.sets, itemSet{items: c.arena[start:len(c.arena):len(c.arena)], count: cnt})
	}
}

// packKey appends ids as 4 little-endian bytes each.
func packKey(dst []byte, ids []int32) []byte {
	for _, id := range ids {
		dst = append(dst, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return dst
}

func popcount(b []uint64) int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// andInto stores a AND b into dst and returns its popcount.
func andInto(dst, a, b []uint64) int {
	a, b = a[:len(dst)], b[:len(dst)]
	n := 0
	for i := range dst {
		w := a[i] & b[i]
		dst[i] = w
		n += bits.OnesCount64(w)
	}
	return n
}

// sortRules orders rules by confidence, then support, descending, then
// by rendered rule; each rule is rendered once, not per comparison.
func sortRules(rules []Rule) {
	type ranked struct {
		r   Rule
		key string
	}
	rs := make([]ranked, len(rules))
	for i, r := range rules {
		rs[i] = ranked{r: r, key: r.String()}
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].r.Confidence != rs[j].r.Confidence {
			return rs[i].r.Confidence > rs[j].r.Confidence
		}
		if rs[i].r.Support != rs[j].r.Support {
			return rs[i].r.Support > rs[j].r.Support
		}
		return rs[i].key < rs[j].key
	})
	for i := range rs {
		rules[i] = rs[i].r
	}
}

func parseItem(s string) Item {
	if i := strings.IndexByte(s, '='); i >= 0 {
		return Item{Signal: s[:i], Value: s[i+1:]}
	}
	return Item{Signal: s}
}

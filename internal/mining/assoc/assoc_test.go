package assoc

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"ivnt/internal/core"
	"ivnt/internal/engine"
	"ivnt/internal/gen"
	"ivnt/internal/rules"
	"ivnt/internal/staterep"
)

// table builds a state table from literal rows.
func table(signals []string, rows [][]string) *staterep.Table {
	tb := &staterep.Table{Signals: signals}
	for i, r := range rows {
		tb.Times = append(tb.Times, float64(i))
		tb.Cells = append(tb.Cells, r)
	}
	return tb
}

// wiperErrorScenario: wiper errors co-occur with freezing temperatures,
// the paper's example rule "IF T<-10 AND WiperActivated THEN
// WiperErrorBlocked".
func wiperErrorScenario() *staterep.Table {
	rows := [][]string{}
	for i := 0; i < 40; i++ {
		rows = append(rows, []string{"warm", "on", "ok"})
	}
	for i := 0; i < 40; i++ {
		rows = append(rows, []string{"warm", "off", "ok"})
	}
	for i := 0; i < 20; i++ {
		rows = append(rows, []string{"freezing", "on", "blocked"})
	}
	return table([]string{"temp", "wiper", "werror"}, rows)
}

func TestMineFindsCausalRule(t *testing.T) {
	rules := Mine(wiperErrorScenario(), Options{MinSupport: 0.1, MinConfidence: 0.9, MaxItems: 3})
	if len(rules) == 0 {
		t.Fatal("no rules mined")
	}
	found := false
	for _, r := range rules {
		s := r.String()
		if strings.Contains(s, "temp=freezing") && strings.Contains(s, "THEN werror=blocked") {
			found = true
			if r.Confidence != 1.0 {
				t.Fatalf("confidence = %v, want 1.0 (%s)", r.Confidence, s)
			}
			if r.Support != 0.2 {
				t.Fatalf("support = %v, want 0.2", r.Support)
			}
		}
	}
	if !found {
		var all []string
		for _, r := range rules {
			all = append(all, r.String())
		}
		t.Fatalf("expected freezing→blocked rule; got:\n%s", strings.Join(all, "\n"))
	}
}

func TestMineConfidenceFiltersWeakRules(t *testing.T) {
	// wiper=on does NOT imply blocked (40 ok vs 20 blocked).
	rules := Mine(wiperErrorScenario(), Options{MinSupport: 0.05, MinConfidence: 0.9, MaxItems: 2})
	for _, r := range rules {
		if len(r.Antecedent) == 1 && r.Antecedent[0].String() == "wiper=on" &&
			r.Consequent.String() == "werror=blocked" {
			t.Fatalf("weak rule passed confidence filter: %s", r)
		}
	}
}

func TestMineDeterministicOrder(t *testing.T) {
	a := Mine(wiperErrorScenario(), Options{})
	b := Mine(wiperErrorScenario(), Options{})
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatalf("rule %d differs: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestMineSkipsUnknownCells(t *testing.T) {
	tb := table([]string{"a", "b"}, [][]string{
		{staterep.Unknown, "x"},
		{staterep.Unknown, "x"},
		{"1", "x"},
	})
	rules := Mine(tb, Options{MinSupport: 0.5, MinConfidence: 0.5, MaxItems: 2})
	for _, r := range rules {
		if strings.Contains(r.String(), staterep.Unknown) {
			t.Fatalf("rule mentions unknown cell: %s", r)
		}
	}
}

func TestMineEmptyAndDefaults(t *testing.T) {
	if rules := Mine(&staterep.Table{}, Options{}); rules != nil {
		t.Fatal("empty table must yield no rules")
	}
	o := Options{}.withDefaults()
	if o.MinSupport != 0.1 || o.MinConfidence != 0.8 || o.MaxItems != 3 {
		t.Fatalf("defaults = %+v", o)
	}
}

func TestMineSupportCount(t *testing.T) {
	tb := table([]string{"a", "b"}, [][]string{
		{"1", "x"}, {"1", "x"}, {"1", "y"}, {"2", "y"},
	})
	rules := Mine(tb, Options{MinSupport: 0.5, MinConfidence: 0.6, MaxItems: 2})
	// a=1 appears 3/4; (a=1, b=x) appears 2/4; conf(a=1→b=x)=2/3.
	found := false
	for _, r := range rules {
		if len(r.Antecedent) == 1 && r.Antecedent[0].String() == "a=1" && r.Consequent.String() == "b=x" {
			found = true
			if r.Count != 2 || r.Support != 0.5 {
				t.Fatalf("rule stats = %+v", r)
			}
			if r.Confidence < 0.66 || r.Confidence > 0.67 {
				t.Fatalf("confidence = %v", r.Confidence)
			}
		}
	}
	if !found {
		t.Fatal("expected a=1 → b=x")
	}
}

func TestRuleString(t *testing.T) {
	r := Rule{
		Antecedent: []Item{{"a", "1"}, {"b", "x=y"}},
		Consequent: Item{"c", "z"},
		Support:    0.5,
		Confidence: 2.0 / 3,
	}
	if got, want := r.String(), "IF a=1 AND b=x=y THEN c=z (sup=0.500, conf=0.667)"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	// The %.3f rendering, rounding and empty antecedent included.
	for _, r := range []Rule{
		{Consequent: Item{"c", ""}, Support: 0.0005, Confidence: 1},
		{Antecedent: []Item{{"s", "-"}}, Consequent: Item{"t", "1"}, Support: 0.0015, Confidence: 0.9995},
	} {
		var parts []string
		for _, it := range r.Antecedent {
			parts = append(parts, it.String())
		}
		want := fmt.Sprintf("IF %s THEN %s (sup=%.3f, conf=%.3f)",
			strings.Join(parts, " AND "), r.Consequent, r.Support, r.Confidence)
		if got := r.String(); got != want {
			t.Fatalf("String() = %q, want %q", got, want)
		}
	}
}

func TestItemParsing(t *testing.T) {
	it := parseItem("sig=va=lue")
	if it.Signal != "sig" || it.Value != "va=lue" {
		t.Fatalf("parseItem = %+v", it)
	}
	if parseItem("noequals").Signal != "noequals" {
		t.Fatal("item without value")
	}
}

// reference mines tb by the documented definition, by brute force: a
// state holds the set of its known cells' signal=value keys; every
// sub-set of at most MaxItems keys of every state is counted; a set is
// frequent when its count reaches MinSupport·n (at least 1); a rule
// takes one key of a frequent set of two or more as consequent and the
// rest as antecedent, and is kept when count(set)/count(antecedent)
// reaches MinConfidence. Rules are ordered by confidence, support, then
// rendered string.
func reference(tb *staterep.Table, opts Options) []Rule {
	opts = opts.withDefaults()
	n := tb.NumRows()
	if n == 0 {
		return nil
	}
	minCount := int(opts.MinSupport * float64(n))
	if minCount < 1 {
		minCount = 1
	}
	type set struct {
		keys  []string
		count int
	}
	// Quoted keys are self-delimiting, so their concatenation names a
	// set unambiguously.
	name := func(keys []string) string {
		var b strings.Builder
		for _, k := range keys {
			b.WriteString(strconv.Quote(k))
		}
		return b.String()
	}
	sets := map[string]*set{}
	for i := 0; i < n; i++ {
		seen := map[string]bool{}
		var keys []string
		for j, sig := range tb.Signals {
			if v := tb.Cells[i][j]; v != staterep.Unknown && !seen[sig+"="+v] {
				seen[sig+"="+v] = true
				keys = append(keys, sig+"="+v)
			}
		}
		sort.Strings(keys)
		var walk func(from int, sub []string)
		walk = func(from int, sub []string) {
			if len(sub) > 0 {
				nm := name(sub)
				if sets[nm] == nil {
					sets[nm] = &set{keys: append([]string(nil), sub...)}
				}
				sets[nm].count++
			}
			if len(sub) == opts.MaxItems {
				return
			}
			for k := from; k < len(keys); k++ {
				walk(k+1, append(sub, keys[k]))
			}
		}
		walk(0, nil)
	}
	item := func(key string) Item {
		sig, val, _ := strings.Cut(key, "=")
		return Item{Signal: sig, Value: val}
	}
	var out []Rule
	for _, s := range sets {
		if s.count < minCount || len(s.keys) < 2 {
			continue
		}
		for k := range s.keys {
			var ante []string
			ante = append(ante, s.keys[:k]...)
			ante = append(ante, s.keys[k+1:]...)
			conf := float64(s.count) / float64(sets[name(ante)].count)
			if conf < opts.MinConfidence {
				continue
			}
			r := Rule{Consequent: item(s.keys[k]), Support: float64(s.count) / float64(n), Confidence: conf, Count: s.count}
			for _, a := range ante {
				r.Antecedent = append(r.Antecedent, item(a))
			}
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Confidence != out[j].Confidence {
			return out[i].Confidence > out[j].Confidence
		}
		if out[i].Support != out[j].Support {
			return out[i].Support > out[j].Support
		}
		return out[i].String() < out[j].String()
	})
	return out
}

// checkReference fails t unless Mine agrees with the reference.
func checkReference(t *testing.T, tb *staterep.Table, opts Options) {
	t.Helper()
	got, want := Mine(tb, opts), reference(tb, opts)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%d rows, %+v: Mine gave %d rules, reference %d\nMine:      %v\nreference: %v",
			tb.NumRows(), opts, len(got), len(want), got, want)
	}
}

// randomTable draws an n-row table over nsig signals with nv values
// each; about one cell in six is Unknown.
func randomTable(rng *rand.Rand, n, nsig, nv int) *staterep.Table {
	sigs := make([]string, nsig)
	for j := range sigs {
		sigs[j] = fmt.Sprintf("s%d", j)
	}
	rows := make([][]string, n)
	for i := range rows {
		rows[i] = make([]string, nsig)
		for j := range rows[i] {
			if rng.Intn(6) == 0 {
				rows[i][j] = staterep.Unknown
			} else {
				rows[i][j] = strconv.Itoa(rng.Intn(nv))
			}
		}
	}
	return table(sigs, rows)
}

func TestMineMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Row counts straddle the 64-bit words of the state bitsets.
	for _, n := range []int{0, 1, 63, 64, 65, 200} {
		for maxItems := 2; maxItems <= 5; maxItems++ {
			for trial := 0; trial < 6; trial++ {
				tb := randomTable(rng, n, 1+rng.Intn(6), 1+rng.Intn(4))
				// Support from a 1-row count up to 0.6.
				sup := []float64{1e-9, 1 / float64(n+1), 0.05, 0.2, 0.6}[trial%5]
				conf := []float64{0.3, 0.8, 1}[trial%3]
				checkReference(t, tb, Options{MinSupport: sup, MinConfidence: conf, MaxItems: maxItems})
			}
		}
	}
}

// journeyState runs the extraction pipeline over one generated journey
// (seeded as the first journey of e2ebench's seed-1 fleets) and returns
// its state table; signals > 0 selects the first signals of the data
// set, as Table 6's focused extraction does.
func journeyState(tb testing.TB, spec gen.DatasetSpec, signals int) *staterep.Table {
	tb.Helper()
	d := gen.Build(spec)
	cfg := d.DefaultConfig()
	if signals > 0 {
		cfg = &rules.DomainConfig{
			Name:        spec.Name,
			SIDs:        d.SelectSIDs(signals),
			Constraints: []rules.Constraint{rules.ChangeConstraint("*")},
		}
		if err := cfg.Normalize(); err != nil {
			tb.Fatal(err)
		}
	}
	fw, err := core.New(d.Catalog, cfg, engine.NewLocal(0))
	if err != nil {
		tb.Fatal(err)
	}
	d.Spec.Seed = 1_000_020
	res, err := fw.RunTrace(context.Background(), d.Generate(50_000))
	if err != nil {
		tb.Fatal(err)
	}
	return res.State
}

func TestMineMatchesReferenceOnJourney(t *testing.T) {
	tb := journeyState(t, gen.SYN, 0)
	// The e2ebench options, then a lower confidence so that rules of
	// every size survive.
	checkReference(t, tb, Options{MinSupport: 0.1, MinConfidence: 0.8, MaxItems: 3})
	checkReference(t, tb, Options{MinSupport: 0.05, MinConfidence: 0.3, MaxItems: 3})
	if len(Mine(tb, Options{MinSupport: 0.05, MinConfidence: 0.3, MaxItems: 3})) == 0 {
		t.Fatal("no rules on a SYN journey")
	}
}

// TestMineCollidingKeysCountStateOnce pins the case of two cells that
// render the same item: signal "a=b" with value "c" and signal "a" with
// value "b=c" are both a=b=c. The state holds that item once, so no
// count exceeds the number of states and no support exceeds 1.
func TestMineCollidingKeysCountStateOnce(t *testing.T) {
	var rows [][]string
	for i := 0; i < 4; i++ {
		rows = append(rows, []string{"1", "c", "b=c"})
	}
	tb := table([]string{"0", "a=b", "a"}, rows)
	got := Mine(tb, Options{MinSupport: 0.5, MinConfidence: 0.5, MaxItems: 2})
	if len(got) != 2 {
		t.Fatalf("rules = %v, want 0=1 <-> a=b=c", got)
	}
	for _, r := range got {
		if r.Count != 4 || r.Support != 1 || r.Confidence != 1 {
			t.Fatalf("rule %s: count %d, want 4 states, support 1, confidence 1", r, r.Count)
		}
	}
	checkReference(t, tb, Options{MinSupport: 0.5, MinConfidence: 0.5, MaxItems: 2})
}

// fuzzTable decodes fuzz bytes into options and a small table: four
// header bytes pick the signal count, MaxItems, MinSupport and
// MinConfidence; every further byte is one cell. Signals "a" and "a=x"
// and the value "x=0" let two cells render the same item.
func fuzzTable(data []byte) (*staterep.Table, Options) {
	if len(data) < 4 {
		return &staterep.Table{}, Options{}
	}
	signals := []string{"a", "a=x", "b", "c"}[:1+int(data[0])%4]
	opts := Options{
		MaxItems:      int(data[1]) % 6,
		MinSupport:    float64(data[2]) / 255,
		MinConfidence: float64(data[3]) / 255,
	}
	values := []string{"0", "1", "x=0", staterep.Unknown}
	cells := data[4:]
	if max := 300 * len(signals); len(cells) > max {
		cells = cells[:max]
	}
	var rows [][]string
	for len(cells) >= len(signals) {
		row := make([]string, len(signals))
		for j := range row {
			row[j] = values[int(cells[j])%len(values)]
		}
		rows = append(rows, row)
		cells = cells[len(signals):]
	}
	return table(signals, rows), opts
}

func FuzzMine(f *testing.F) {
	f.Add([]byte{3, 3, 25, 200, 0, 1, 2, 3, 0, 1, 2, 0, 1, 1, 0, 0})
	f.Add([]byte{1, 2, 0, 0, 2, 0, 2, 0, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		tb, opts := fuzzTable(data)
		checkReference(t, tb, opts)
	})
}

func BenchmarkMine(b *testing.B) {
	opts := Options{MinSupport: 0.1, MinConfidence: 0.8, MaxItems: 3}
	for _, bc := range []struct {
		name    string
		spec    gen.DatasetSpec
		signals int
	}{
		{"syn-all", gen.SYN, 0},
		{"lig-9", gen.LIG, 9},
	} {
		b.Run(bc.name, func(b *testing.B) {
			tb := journeyState(b, bc.spec, bc.signals)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Mine(tb, opts)
			}
			b.ReportMetric(float64(tb.NumRows()), "states")
		})
	}
}

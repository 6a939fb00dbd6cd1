package difftest

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ivnt/internal/engine"
	datagen "ivnt/internal/gen"
	"ivnt/internal/interp"
	"ivnt/internal/oracle"
	"ivnt/internal/relation"
	"ivnt/internal/rules"
	"ivnt/internal/trace"
)

// interpCase is one seeded interpretation workload: a generated catalog
// (SYN or LIG layouts under a seed-perturbed generator seed), a random
// selection of 1…all of its signals, and a K_b trace of that data set.
type interpCase struct {
	w       *Workload // K_b schema and rows, for Report
	catalog []rules.Translation
	ucomb   []rules.Translation
}

// genInterpCase builds the workload for one seed. Beyond what the
// generator produces on its own — several signals per (b_id, m_id),
// lookup, signed and scaled rules, messages no selection matches — it
// truncates ~5% of payloads (so u₁ yields null) and blanks one rule
// (so u₂ yields null).
func genInterpCase(seed int64) *interpCase {
	rng := rand.New(rand.NewSource(seed))
	spec := []datagen.DatasetSpec{datagen.SYN, datagen.LIG}[seed%2]
	spec.Seed += seed
	d := datagen.Build(spec)
	tr := d.Generate(100 + rng.Intn(300))
	for i := range tr.Tuples {
		if p := tr.Tuples[i].Payload; len(p) > 0 && rng.Float64() < 0.05 {
			tr.Tuples[i].Payload = p[:rng.Intn(len(p))]
		}
	}
	cat := append([]rules.Translation(nil), d.Catalog.Translations...)
	cat[rng.Intn(len(cat))].Rule = ""
	c := &rules.Catalog{Translations: cat}
	sids := c.SIDs()
	rng.Shuffle(len(sids), func(i, j int) { sids[i], sids[j] = sids[j], sids[i] })
	ucomb, err := c.Select(sids[:1+rng.Intn(len(sids))]...)
	if err != nil {
		panic(err)
	}
	kb := tr.ToRelation(1)
	return &interpCase{
		w:       &Workload{Seed: seed, Schema: kb.Schema, Rows: kb.Rows()},
		catalog: cat,
		ucomb:   ucomb,
	}
}

func (c *interpCase) options(preselect bool) interp.Options {
	if preselect {
		return interp.DefaultOptions()
	}
	return interp.Options{FullCatalog: c.catalog}
}

// checkInterp runs the interpretation invariants for one workload: for
// P ∈ {1, 2, 7} and preselection on and off,
//
//	interp.Extract on the local executor == the oracle's relational plan   bitwise
//
// plus one Extract over the real TCP cluster per preselection mode, and
// preselection on == off as multisets (the two modes order a message's
// signals by selection vs catalog order).
func (e *Env) checkInterp(ctx context.Context, c *interpCase) []string {
	var fails []string
	fail := func(invariant, detail string) {
		fails = append(fails, Report(c.w, invariant, detail))
	}
	clusterP := []int{1, 2, 7}[uint64(c.w.Seed)%3]
	for _, p := range []int{1, 2, 7} {
		var byMode [2]*relation.Relation
		for mode, preselect := range []bool{true, false} {
			opts := c.options(preselect)
			ops, err := interp.Plan(c.ucomb, opts)
			if err != nil {
				fail("interp-plan", err.Error())
				return fails
			}
			c.w.Ops = ops
			name := fmt.Sprintf("p=%d preselect=%v", p, preselect)
			want, err := oracle.RunStage(c.w.rel(p), ops)
			if err != nil {
				fail("interp-oracle "+name, err.Error())
				continue
			}
			got, _, err := interp.Extract(ctx, e.Local, c.w.rel(p), c.ucomb, opts)
			if err != nil {
				fail("interp-local "+name, err.Error())
			} else if d := DiffExact(want, got); d != "" {
				fail("interp-local "+name, d)
			}
			byMode[mode] = want
			if p != clusterP {
				continue
			}
			got, _, err = interp.Extract(ctx, e.driver(), c.w.rel(p), c.ucomb, opts)
			if err != nil {
				fail("interp-cluster "+name, err.Error())
			} else if d := DiffExact(want, got); d != "" {
				fail("interp-cluster "+name, d)
			}
		}
		if byMode[0] != nil && byMode[1] != nil {
			if d := DiffCanonical(byMode[0], byMode[1]); d != "" {
				fail(fmt.Sprintf("interp-preselect-invariance p=%d", p), d)
			}
		}
	}
	return fails
}

// TestInterpDifferential drives the interpretation invariants over the
// seeded workload population (the `make difftest FAMILY=interp` CI
// job). Replay one failure with -run InterpDifferential
// -difftest.seed=<seed>.
func TestInterpDifferential(t *testing.T) {
	ctx := context.Background()
	env, err := NewEnv(ctx)
	if err != nil {
		t.Fatalf("start cluster env: %v", err)
	}
	defer env.Close()

	var seeds []int64
	if *flagSeed != 0 {
		seeds = []int64{*flagSeed}
	} else {
		for i := int64(0); i < int64(*flagN); i++ {
			seeds = append(seeds, *flagBase+i)
		}
	}
	failures := 0
	for _, seed := range seeds {
		c := genInterpCase(seed)
		t.Logf("seed %d: %d messages, %d/%d tuples selected", seed, len(c.w.Rows), len(c.ucomb), len(c.catalog))
		for _, rep := range env.checkInterp(ctx, c) {
			t.Errorf("\n%s", rep)
			failures++
		}
		if failures >= 3 {
			t.Fatalf("stopping after %d mismatches", failures)
		}
	}
}

// TestInterpDifferentialCatchesReversedBucket demonstrates detection
// power: an engine-side table with one (b_id, m_id) bucket's tuples in
// reverse order emits the right signal instances in the wrong order
// within each message. The bitwise oracle comparison must catch it
// with a replayable report.
func TestInterpDifferentialCatchesReversedBucket(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 20; seed++ {
		c := genInterpCase(seed)
		ops, err := interp.Plan(c.ucomb, interp.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		bad, ok := reverseOneBucket(c.ucomb)
		if !ok {
			continue
		}
		c.w.Ops = ops
		want, err := oracle.RunStage(c.w.rel(2), ops)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := engine.NewLocal(2).RunStage(ctx, c.w.rel(2), []engine.OpDesc{engine.Interpret(bad)})
		if err != nil {
			t.Fatal(err)
		}
		d := DiffExact(want, got)
		if d == "" {
			continue // no message of this trace carries the reversed bucket
		}
		rep := Report(c.w, "injected-reversed-bucket", d)
		for _, token := range []string{"seed:", "-difftest.seed=", "partition"} {
			if !strings.Contains(rep, token) {
				t.Fatalf("report missing %q:\n%s", token, rep)
			}
		}
		t.Logf("reversed bucket caught:\n%s", rep)
		return
	}
	t.Fatal("a reversed table bucket survived the oracle comparison on every seed")
}

// reverseOneBucket returns ts with the tuples of its first (b_id,
// m_id) pair that has several reversed in place, or false when every
// pair has one tuple.
func reverseOneBucket(ts []rules.Translation) ([]rules.Translation, bool) {
	pos := map[string][]int{}
	var order []string
	for i, u := range ts {
		k := fmt.Sprintf("%s\x00%d", u.Channel, u.MsgID)
		if pos[k] == nil {
			order = append(order, k)
		}
		pos[k] = append(pos[k], i)
	}
	for _, k := range order {
		idx := pos[k]
		if len(idx) < 2 {
			continue
		}
		out := append([]rules.Translation(nil), ts...)
		for a, b := 0, len(idx)-1; a < b; a, b = a+1, b-1 {
			out[idx[a]], out[idx[b]] = ts[idx[b]], ts[idx[a]]
		}
		return out, true
	}
	return nil, false
}

// TestInterpCaseCoverage pins the generator's coverage promises on the
// first seeds: shared (b_id, m_id) pairs, truncated payloads, lookup
// and empty rules, and messages no selection matches.
func TestInterpCaseCoverage(t *testing.T) {
	var shared, lookup, empty, truncated, unmatched bool
	for seed := int64(1); seed <= 10; seed++ {
		c := genInterpCase(seed)
		_, ok := reverseOneBucket(c.ucomb)
		shared = shared || ok
		lastByte := map[string][]int{} // selected (b_id, m_id) → each tuple's last relevant byte
		for _, u := range c.ucomb {
			lookup = lookup || strings.HasPrefix(u.Rule, "lookup(")
			empty = empty || u.Rule == ""
			k := fmt.Sprintf("%s\x00%d", u.Channel, u.MsgID)
			lastByte[k] = append(lastByte[k], u.LastByte)
		}
		bid, mid, l := c.w.Schema.MustIndex(trace.ColBID), c.w.Schema.MustIndex(trace.ColMID), c.w.Schema.MustIndex(trace.ColL)
		for _, r := range c.w.Rows {
			lasts, ok := lastByte[fmt.Sprintf("%s\x00%d", r[bid].S, r[mid].I)]
			unmatched = unmatched || !ok
			for _, last := range lasts {
				truncated = truncated || last >= len(r[l].B)
			}
		}
	}
	if !shared || !lookup || !empty || !truncated || !unmatched {
		t.Fatalf("coverage gap: shared=%v lookup=%v empty=%v truncated=%v unmatched=%v",
			shared, lookup, empty, truncated, unmatched)
	}
}

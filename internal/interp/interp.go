// Package interp implements information extraction (Sec. 3, Algorithm 1
// lines 3–6): preselection of relevant messages, the join of raw
// messages with translation tuples, the u₁ relevant-byte extraction and
// the u₂ value interpretation, all as one serializable engine operator
// (engine.OpInterpret) so it distributes row-parallel across executors.
package interp

import (
	"context"
	"fmt"

	"ivnt/internal/engine"
	"ivnt/internal/relation"
	"ivnt/internal/rules"
)

// Options tune the extraction plan.
type Options struct {
	// Preselect enables the line-3 preselection semijoin that filters
	// K_b to relevant (b_id, m_id) pairs before joining rules. Ablation
	// A1 switches it off, which forces interpretation of the full
	// catalog followed by a post-filter.
	Preselect bool
	// FullCatalog is U_rel, required when Preselect is false: the plan
	// then interprets every documented signal and filters to the
	// selection afterwards, reproducing what "translating all signal
	// instances in all message instances" costs.
	FullCatalog []rules.Translation
}

// DefaultOptions enable preselection.
func DefaultOptions() Options { return Options{Preselect: true} }

// Plan builds the extraction stage for a U_comb selection: applied to a
// K_b relation it yields the K_s relation (t, sid, v, bid).
//
// The stage is one engine.OpInterpret over U_comb: preselection (line
// 3), the join with translation tuples (line 4), u₁ (line 5) and u₂
// (line 6) run as a single row-parallel pass. Without preselection it
// interprets the full catalog instead and post-filters to the
// selection, reproducing what "translating all signal instances in all
// message instances" costs.
func Plan(ucomb []rules.Translation, opts Options) ([]engine.OpDesc, error) {
	if len(ucomb) == 0 {
		return nil, fmt.Errorf("interp: empty U_comb")
	}
	if opts.Preselect {
		return []engine.OpDesc{engine.Interpret(ucomb)}, nil
	}
	if len(opts.FullCatalog) == 0 {
		return nil, fmt.Errorf("interp: Preselect=false requires FullCatalog")
	}
	return []engine.OpDesc{
		engine.Interpret(opts.FullCatalog),
		engine.Filter(sidFilterExpr(ucomb)),
	}, nil
}

// sidFilterExpr renders "sid=='a' || sid=='b' || ...".
func sidFilterExpr(ucomb []rules.Translation) string {
	seen := map[string]bool{}
	var out string
	for i := range ucomb {
		sid := ucomb[i].SID
		if seen[sid] {
			continue
		}
		seen[sid] = true
		if out != "" {
			out += " || "
		}
		out += fmt.Sprintf("sid == %q", sid)
	}
	return out
}

// Extract runs the extraction plan over a K_b relation on the given
// executor and returns K_s (plus stage statistics).
func Extract(ctx context.Context, exec engine.Executor, kb *relation.Relation, ucomb []rules.Translation, opts Options) (*relation.Relation, engine.Stats, error) {
	ops, err := Plan(ucomb, opts)
	if err != nil {
		return nil, engine.Stats{}, err
	}
	return exec.RunStage(ctx, kb, ops)
}

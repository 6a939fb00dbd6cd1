package main

import (
	"fmt"

	"ivnt/internal/mining/anomaly"
	"ivnt/internal/mining/assoc"
	"ivnt/internal/mining/motif"
	"ivnt/internal/mining/transition"
	"ivnt/internal/relation"
	"ivnt/internal/staterep"
	"ivnt/internal/telemetry"
)

// mineCounts are one mining pass's result sizes; every pass over the
// same state tables must reproduce them exactly.
type mineCounts struct {
	Rules, Transitions, Rare, Anomalies, Motifs, Discords int
}

// minePass runs what cmd/mine runs with its default flags — rules,
// graph, anomaly, and motif on one signal — over every journey's state
// table. pass may be nil (untraced); otherwise every application call
// gets a span.
func minePass(states []*staterep.Table, seqs []*relation.Relation, pass *telemetry.Span) (mineCounts, error) {
	var c mineCounts
	for i, tb := range states {
		sp := pass.Child("mining.assoc", telemetry.A("journey", i))
		rules := assoc.Mine(tb, assoc.Options{MinSupport: 0.1, MinConfidence: 0.8, MaxItems: 3})
		sp.End()
		c.Rules += len(rules)

		sp = pass.Child("mining.transition", telemetry.A("journey", i))
		g, err := transition.Build(tb)
		if err == nil {
			c.Rare += len(g.Rare(1, 0.5))
			c.Transitions += g.Transitions
		}
		sp.End()
		if err != nil {
			return c, fmt.Errorf("transition graph: %w", err)
		}

		sp = pass.Child("mining.anomaly", telemetry.A("journey", i))
		c.Anomalies += len(anomaly.Detect(tb, 10))
		sp.End()

		sp = pass.Child("mining.motif", telemetry.A("journey", i))
		motifs, err := motif.Mine(seqs[i], motif.Options{Length: 3, MinSupport: 0.1, TopK: 10})
		var discords []motif.Discord
		if err == nil {
			discords, err = motif.Discords(seqs[i], motif.Options{Length: 3}, 1)
		}
		sp.End()
		if err != nil {
			return c, fmt.Errorf("motif: %w", err)
		}
		c.Motifs += len(motifs)
		c.Discords += len(discords)
	}
	return c, nil
}

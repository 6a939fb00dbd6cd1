// Package anomaly implements the anomaly detection application of
// Sec. 4.4: hot-spot states are scored by the rarity of their
// signal-value combinations, ranked by severity for the developer, and
// can be transformed automatically into extension rules w that flag
// similar anomalies in further runs.
package anomaly

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"ivnt/internal/rules"
	"ivnt/internal/staterep"
)

// Anomaly is one ranked state.
type Anomaly struct {
	// Row is the state-table row index; T its timestamp.
	Row int
	T   float64
	// Score is the severity (higher is rarer); the sum of per-signal
	// surprisals -log2 p(signal=value).
	Score float64
	// Culprit is the signal contributing the most surprisal, with its
	// value — the natural starting point for diagnosis.
	Culprit      string
	CulpritValue string
	// State is the full row.
	State map[string]string
}

// String renders a one-line report entry.
func (a Anomaly) String() string {
	return fmt.Sprintf("t=%.3f score=%.2f culprit=%s=%s", a.T, a.Score, a.Culprit, a.CulpritValue)
}

// Detect scores every state by summed surprisal of its cell values and
// returns the topK, most severe first. Unknown cells contribute
// nothing. Only the returned anomalies get their State map.
func Detect(tb *staterep.Table, topK int) []Anomaly {
	n := tb.NumRows()
	if n == 0 || topK < 1 {
		return nil
	}
	// Per-column value frequencies.
	freqs := make([]map[string]int, len(tb.Signals))
	for j := range tb.Signals {
		freqs[j] = map[string]int{}
	}
	for i := 0; i < n; i++ {
		for j := range tb.Signals {
			freqs[j][tb.Cells[i][j]]++
		}
	}
	out := make([]Anomaly, 0, n)
	for i := 0; i < n; i++ {
		var score, worst float64
		worstJ := -1
		for j := range tb.Signals {
			v := tb.Cells[i][j]
			if v == staterep.Unknown {
				continue
			}
			p := float64(freqs[j][v]) / float64(n)
			s := -math.Log2(p)
			score += s
			if s > worst {
				worst, worstJ = s, j
			}
		}
		a := Anomaly{Row: i, T: tb.Times[i], Score: score}
		if worstJ >= 0 {
			a.Culprit = tb.Signals[worstJ]
			a.CulpritValue = tb.Cells[i][worstJ]
		}
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Row < out[j].Row
	})
	if topK < len(out) {
		out = out[:topK]
	}
	for i := range out {
		out[i].State = tb.Row(out[i].Row)
	}
	return out
}

// ToExtension converts an anomaly into an extension rule w (Sec. 4.4:
// "automatically be transformed into extensions w to detect similar
// anomalies in further runs"): the rule fires whenever the culprit
// signal takes the anomalous value again.
func (a Anomaly) ToExtension() (rules.Extension, error) {
	if a.Culprit == "" {
		return rules.Extension{}, fmt.Errorf("anomaly: no culprit signal to derive a rule from")
	}
	ext := rules.Extension{
		WID:  "anomaly." + a.Culprit,
		SID:  a.Culprit,
		Expr: fmt.Sprintf("iff(str(v) == %q, 1, null)", a.CulpritValue),
	}
	if err := ext.Validate(); err != nil {
		return rules.Extension{}, err
	}
	return ext, nil
}

// Report renders the top anomalies as an aligned text block.
func Report(as []Anomaly) string {
	var b strings.Builder
	for i, a := range as {
		fmt.Fprintf(&b, "%2d. %s\n", i+1, a)
	}
	return b.String()
}

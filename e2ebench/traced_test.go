package main

import (
	"testing"
	"time"

	"ivnt/internal/telemetry"
)

func TestUnionAndSelfTime(t *testing.T) {
	// Clock readings in call order: the three starts, then the ends.
	tr := telemetry.NewTracerAt(clock(0, 2, 3, 8, 10, 4, 6, 9))
	root := tr.StartSpan("root") // [0, 10)
	a := root.Child("a")         // [2, 4)
	b := root.Child("a")         // [3, 6)
	c := root.Child("b")         // [8, 9)
	root.End()
	a.End()
	b.End()
	c.End()
	tree := newSpanTree(tr.Snapshot())
	id := tree.roots("root")[0]
	if got := tree.busy(id, "a"); got != 4*time.Second {
		t.Errorf("busy(a) = %v, want 4s (union of [2,4) and [3,6))", got)
	}
	if got := tree.total(id, "a"); got != 5*time.Second {
		t.Errorf("total(a) = %v, want 5s", got)
	}
	if got := tree.selfTimes()["root"].Median; got != 5000 {
		t.Errorf("root self time = %vms, want 5000 (10s minus 5s covered by children)", got)
	}
}

// clock returns the given second marks, one per call.
func clock(marks ...float64) func() time.Time {
	i := 0
	return func() time.Time {
		m := marks[i]
		i++
		return time.Unix(0, 0).Add(time.Duration(m * float64(time.Second)))
	}
}

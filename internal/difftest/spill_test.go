package difftest

import (
	"context"
	"flag"
	"testing"

	"ivnt/internal/memgov"
	"ivnt/internal/telemetry"
)

// -difftest.membudget puts the whole differential run under a memory
// budget: every seeded workload then executes with governed sorts and
// aggregations, and any budget small enough forces them all through the
// spill paths. make difftest FAMILY=spill runs TestDifferential with a 4KiB
// budget under -race.
var flagMemBudget = flag.Int64("difftest.membudget", 0,
	"memory budget in bytes for the engine governor during the differential run (0 = unlimited); tiny values force every sort/aggregation to spill")

// armBudget applies -difftest.membudget (when set) for one test.
func armBudget(t *testing.T) {
	t.Helper()
	if *flagMemBudget <= 0 {
		return
	}
	g := memgov.Default()
	old := g.Budget()
	g.SetBudget(*flagMemBudget)
	t.Cleanup(func() { g.SetBudget(old) })
	t.Logf("memory budget %d bytes (spill paths forced)", *flagMemBudget)
}

func spillTotal() int64 {
	return telemetry.Default().CounterValue("engine_spills_total")
}

// TestDifferentialSpill is the always-on spill acceptance run: seeded
// workloads execute under a 4KiB budget — low enough that every sort
// and aggregation takes the external path — and
// the oracle/local/cluster outputs must stay bitwise identical to the
// ungoverned semantics the oracle defines. A counter delta proves the
// degraded paths actually ran rather than the budget being ignored.
func TestDifferentialSpill(t *testing.T) {
	g := memgov.Default()
	old := g.Budget()
	g.SetBudget(4 << 10)
	defer g.SetBudget(old)

	ctx := context.Background()
	env, err := NewEnv(ctx)
	if err != nil {
		t.Fatalf("start cluster env: %v", err)
	}
	defer env.Close()

	before := spillTotal()
	failures := 0
	for seed := int64(1); seed <= 8; seed++ {
		w := Generate(seed)
		for _, rep := range env.CheckWorkload(ctx, w) {
			t.Errorf("%s", rep)
			failures++
		}
		if failures >= 3 {
			t.Fatalf("stopping after %d mismatches", failures)
		}
	}
	if d := spillTotal() - before; d == 0 {
		t.Fatal("no spills recorded under a 4KiB budget: governed kernels were bypassed")
	}
}

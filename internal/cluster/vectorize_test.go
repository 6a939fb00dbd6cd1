package cluster

import (
	"context"
	"testing"
	"time"

	"ivnt/internal/telemetry"
)

// TestClusterUsesVectorizedEngine asserts that remote executors run
// stages through the vectorized engine path: a driver RunStage against
// a real TCP cluster must advance engine_vectorized_batches_total
// (StartLocalCluster executors live in-process, so they share the
// default telemetry registry).
func TestClusterUsesVectorizedEngine(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	addrs, stop, err := StartLocalCluster(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	reg := telemetry.Default()
	drv := &Driver{Addrs: addrs, SlotsPerExecutor: 2}

	before := reg.CounterValue("engine_vectorized_batches_total")
	if _, _, err := drv.RunStage(ctx, traceRel(5000, 4), stageOps()); err != nil {
		t.Fatal(err)
	}
	after := reg.CounterValue("engine_vectorized_batches_total")
	if after <= before {
		t.Fatalf("engine_vectorized_batches_total did not advance across a cluster stage: before=%d after=%d", before, after)
	}
}

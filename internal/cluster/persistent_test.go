package cluster

import (
	"context"
	"testing"
	"time"

	"ivnt/internal/engine"
)

// A persistent driver must reuse connections — and their stage-once
// shipping caches — across stages: the second run of the same stage
// ships nothing and dials nothing.
func TestPersistentDriverReusesConnections(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	addrs, stop, err := StartLocalCluster(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	// Each executor must draw a task in the first run, or its pooled
	// connection (if it dialed at all) never received the stage. The
	// second executor holds its first task until the first executor
	// has drawn one, and the first executor is not reachable until the
	// second has drawn one, so both slots ship the stage.
	drewA, drewB := make(chan struct{}), make(chan struct{})
	gated := []string{
		gateProxy(t, ctx, addrs[0], drewB, nil, drewA),
		gateProxy(t, ctx, addrs[1], nil, drewA, drewB),
	}

	rel := traceRel(300, 6)
	drv := &Driver{Addrs: gated, SlotsPerExecutor: 1, Persistent: true}
	defer drv.Close()

	want, _, err := engine.NewLocal(2).RunStage(ctx, rel, stageOps())
	if err != nil {
		t.Fatal(err)
	}
	run := func() engine.Stats {
		t.Helper()
		got, st, err := drv.RunStage(ctx, rel, stageOps())
		if err != nil {
			t.Fatal(err)
		}
		gr, wr := got.Rows(), want.Rows()
		if len(gr) != len(wr) {
			t.Fatalf("rows = %d, want %d", len(gr), len(wr))
		}
		for i := range gr {
			if !gr[i].Equal(wr[i]) {
				t.Fatalf("row %d differs: %v vs %v", i, gr[i], wr[i])
			}
		}
		return st
	}

	st1 := run()
	if st1.StagesShipped == 0 {
		t.Fatalf("first run shipped no stages: %+v", st1)
	}
	drv.poolMu.Lock()
	pooled := 0
	for _, l := range drv.pool {
		pooled += len(l)
	}
	drv.poolMu.Unlock()
	if pooled == 0 {
		t.Fatal("no connections pooled after a clean stage")
	}

	st2 := run()
	if st2.StagesShipped != 0 {
		t.Fatalf("second run re-shipped the stage %d time(s): pooled connections lost their cache", st2.StagesShipped)
	}
	if st2.Reconnects != 0 {
		t.Fatalf("second run reconnected %d time(s)", st2.Reconnects)
	}
	// Byte accounting must be per-stage deltas, not cumulative: the
	// second run moves less (no stage shipment) but still nonzero.
	if st2.BytesSent <= 0 || st2.BytesSent >= st1.BytesSent {
		t.Fatalf("second-run bytes %d not a fresh delta of first-run %d", st2.BytesSent, st1.BytesSent)
	}
}

// Close must be idempotent and stop further pooling.
func TestPersistentDriverClose(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	addrs, stop, err := StartLocalCluster(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	drv := &Driver{Addrs: addrs, Persistent: true}
	if _, _, err := drv.RunStage(ctx, traceRel(50, 2), stageOps()); err != nil {
		t.Fatal(err)
	}
	drv.Close()
	drv.Close()
	// Stages still run after Close (fresh dials, nothing pooled).
	if _, _, err := drv.RunStage(ctx, traceRel(50, 2), stageOps()); err != nil {
		t.Fatal(err)
	}
	drv.poolMu.Lock()
	defer drv.poolMu.Unlock()
	if len(drv.pool) != 0 {
		t.Fatalf("pool repopulated after Close: %v", drv.pool)
	}
}

// Shuffle map tasks run on the same slots as stage tasks, so a
// persistent driver's second shuffle draws its map connection from the
// pool: no reconnect, no stage re-shipment, and a byte count that is a
// fresh per-shuffle delta no longer paying for the handshake, the stage
// or gob type descriptors. One executor with one slot keeps the map
// connection's history deterministic. Freed shuffles leave no
// sentShuffles entry behind on pooled connections.
func TestPersistentDriverPoolsShuffleMaps(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	addrs, stop, err := StartLocalCluster(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	drv := &Driver{Addrs: addrs, Persistent: true}
	defer drv.Close()
	rel := keyedRel(600, 6)
	ops := []engine.OpDesc{engine.Filter("g != 1")}
	mapped, _, err := engine.NewLocal(2).RunStage(ctx, rel, ops)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mapped.PartitionByKey(4, "k")
	if err != nil {
		t.Fatal(err)
	}
	pooled := func() (conns, shuffles int) {
		drv.poolMu.Lock()
		defer drv.poolMu.Unlock()
		for _, l := range drv.pool {
			for _, c := range l {
				conns++
				shuffles += len(c.sentShuffles)
			}
		}
		return conns, shuffles
	}
	run := func() engine.Stats {
		t.Helper()
		got, st, err := drv.ShuffleMaterialize(ctx, rel, ops, []string{"k"}, 4)
		if err != nil {
			t.Fatal(err)
		}
		mustSamePartitioned(t, "persistent shuffle", want, got)
		conns, shuffles := pooled()
		if conns == 0 {
			t.Fatal("no map connections pooled after a clean shuffle")
		}
		if shuffles != 0 {
			t.Fatalf("pooled connections still hold %d freed shuffle(s)", shuffles)
		}
		return st
	}

	st1 := run()
	st2 := run()
	if st1.StagesShipped == 0 {
		t.Fatalf("first shuffle shipped no map stage: %+v", st1)
	}
	if st2.StagesShipped != 0 || st2.Reconnects != 0 {
		t.Fatalf("second shuffle shipped the stage %d time(s) and reconnected %d time(s): map connection not reused",
			st2.StagesShipped, st2.Reconnects)
	}
	if st2.BytesSent <= 0 || st2.BytesSent >= st1.BytesSent {
		t.Fatalf("second-shuffle bytes %d not a fresh delta of first-shuffle %d", st2.BytesSent, st1.BytesSent)
	}
}

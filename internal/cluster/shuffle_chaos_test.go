package cluster

import (
	"context"
	"net"
	"testing"
	"time"

	"ivnt/internal/cluster/faultproxy"
	"ivnt/internal/engine"
	"ivnt/internal/relation"
)

// shuffleChaosWant computes the reference shuffle output (map ops, then
// PartitionByKey) the chaos runs must reproduce bitwise.
func shuffleChaosWant(t *testing.T, ctx context.Context, rel *relation.Relation, ops []engine.OpDesc, parts int) *relation.Relation {
	t.Helper()
	mapped, _, err := engine.NewLocal(2).RunStage(ctx, rel, ops)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mapped.PartitionByKey(parts, "k")
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// peerProxyCluster starts a 2-executor cluster and a chaos proxy on the
// PEER link to executor 1: the driver talks to both executors directly,
// but executor-to-executor pushes bound for executor 1 traverse the
// proxy (ShufflePeers overrides only the endpoint map the executors
// dial each other with).
func peerProxyCluster(t *testing.T, ctx context.Context) (drv *Driver, proxy *faultproxy.Proxy, cleanup func()) {
	t.Helper()
	addrs, stop, err := StartLocalCluster(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	proxy, err = faultproxy.New(addrs[1])
	if err != nil {
		stop()
		t.Fatal(err)
	}
	drv = &Driver{
		Addrs:              addrs,
		ShufflePeers:       []string{addrs[0], proxy.Addr()},
		ShufflePushTimeout: 300 * time.Millisecond,
		MaxRetries:         8,
		ReconnectBase:      10 * time.Millisecond,
	}
	return drv, proxy, func() { proxy.Close(); stop() }
}

// TestChaosShufflePeerSevered: the peer stream to executor 1 dies
// mid-partition (inside the first push ack) once. The pushing map task
// must fail retryably and be re-run — re-pushing a deterministically
// identical run that the receiver dedups — and the stage must complete
// bitwise-correct, not abort.
func TestChaosShufflePeerSevered(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	drv, proxy, cleanup := peerProxyCluster(t, ctx)
	defer cleanup()

	plan := faultproxy.Passthrough()
	plan.SeverAfter = ackLen(t, 1) + 4 // handshake passes; die inside the first push ack
	plan.Once = true
	proxy.SetPlan(plan)

	rel := keyedRel(2000, 8)
	want := shuffleChaosWant(t, ctx, rel, nil, 6)
	got, st, err := drv.ShuffleMaterialize(ctx, rel, nil, []string{"k"}, 6)
	if err != nil {
		t.Fatalf("severed peer stream aborted the stage: %v", err)
	}
	mustSamePartitioned(t, "severed peer", want, got)
	if st.Retries == 0 {
		t.Fatalf("severed push must retry the map task, stats = %+v", st)
	}
}

// TestChaosShufflePeerHung: the peer stream stalls mid-partition (acks
// stop after the handshake) once. The push deadline must fire on the
// sending executor, the map task must come back retryable, and the
// retry must finish the stage.
func TestChaosShufflePeerHung(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	drv, proxy, cleanup := peerProxyCluster(t, ctx)
	defer cleanup()

	plan := faultproxy.Passthrough()
	plan.StallAfter = ackLen(t, 1) // handshake completes; every ack stalls
	plan.Once = true
	proxy.SetPlan(plan)

	rel := keyedRel(2000, 8)
	want := shuffleChaosWant(t, ctx, rel, nil, 6)
	got, st, err := drv.ShuffleMaterialize(ctx, rel, nil, []string{"k"}, 6)
	if err != nil {
		t.Fatalf("hung peer stream aborted the stage: %v", err)
	}
	mustSamePartitioned(t, "hung peer", want, got)
	if st.Retries == 0 {
		t.Fatalf("hung push must retry the map task, stats = %+v", st)
	}
}

// TestChaosShufflePeerCorrupted: one byte of the peer ack stream is
// flipped. The pusher must treat the broken gob stream as a transport
// failure (retryable), not commit anything partial, and the retried
// task must complete the stage bitwise-correct.
func TestChaosShufflePeerCorrupted(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	drv, proxy, cleanup := peerProxyCluster(t, ctx)
	defer cleanup()

	plan := faultproxy.Passthrough()
	plan.CorruptAt = ackLen(t, 1) + 2 // inside the first push ack
	plan.Once = true
	proxy.SetPlan(plan)

	rel := keyedRel(2000, 8)
	want := shuffleChaosWant(t, ctx, rel, nil, 6)
	got, st, err := drv.ShuffleMaterialize(ctx, rel, nil, []string{"k"}, 6)
	if err != nil {
		t.Fatalf("corrupted peer stream aborted the stage: %v", err)
	}
	mustSamePartitioned(t, "corrupted peer", want, got)
	if st.Retries == 0 {
		t.Fatalf("corrupted push must retry the map task, stats = %+v", st)
	}
}

// TestChaosShuffleExecutorKilledAtReduce pins the reduce-phase
// recovery path: the executor dies AFTER the barrier (its committed
// runs fully materialized) and restarts before reduce. The restarted
// process answers reduce with a retryable "source not materialized";
// reduceAll must preserve that retryability across the control-plane
// retry loop, re-materialize the lost runs, and complete the
// partition set bitwise-correct.
func TestChaosShuffleExecutorKilledAtReduce(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	addrs0, stop0, err := StartLocalCluster(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer stop0()

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr1 := l.Addr().String()
	srv1 := &ExecutorServer{Capacity: 2}
	sctx1, kill1 := context.WithCancel(ctx)
	served1 := make(chan struct{})
	go func() {
		defer close(served1)
		_ = srv1.Serve(sctx1, l)
	}()

	drv := &Driver{
		Addrs:            []string{addrs0[0], addr1},
		MaxRetries:       8,
		ReconnectBase:    10 * time.Millisecond,
		SlotFailureLimit: 500,
	}
	rel := keyedRel(5000, 8)
	const parts = 6
	want := shuffleChaosWant(t, ctx, rel, nil, parts)

	stats := engine.NewStatsCollector()
	ss, err := drv.newShuffleSession(rel, nil, []string{"k"}, parts, stats)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.free()
	if err := ss.ensureMaterialized(ctx, ss.allTasks()); err != nil {
		t.Fatalf("materialize: %v", err)
	}

	// Everything is committed on both executors; now lose one of them.
	kill1()
	<-served1
	l2, err := net.Listen("tcp", addr1)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := &ExecutorServer{Capacity: 2}
	sctx2, kill2 := context.WithCancel(ctx)
	served2 := make(chan struct{})
	go func() {
		defer close(served2)
		_ = srv2.Serve(sctx2, l2)
	}()
	defer func() { kill2(); <-served2 }()

	makeMsg := func(p int) *shuffleReduceMsg {
		return &shuffleReduceMsg{Shuffle: ss.id, Part: p, Kind: reduceCollect, Sources: ss.sources}
	}
	outParts, err := reduceAll(ctx, []*shuffleSession{ss}, makeMsg, ss.schema)
	if err != nil {
		t.Fatalf("reduce after kill did not recover: %v", err)
	}
	got := &relation.Relation{Schema: ss.schema, Partitions: outParts}
	mustSamePartitioned(t, "killed at reduce", want, got)
}

// TestChaosShuffleExecutorKilled is the acceptance criterion: an
// executor process dies mid-shuffle and restarts on the same address.
// Its committed runs are gone; the driver's barrier detects the missing
// (partition, source) pairs, re-runs exactly those map tasks on the
// fresh process (re-opening the shuffle on reconnect), and the stage
// completes bitwise-correct.
func TestChaosShuffleExecutorKilled(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	addrs0, stop0, err := StartLocalCluster(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer stop0()

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr1 := l.Addr().String()
	srv1 := &ExecutorServer{Capacity: 1}
	sctx1, kill1 := context.WithCancel(ctx)
	served1 := make(chan struct{})
	go func() {
		defer close(served1)
		_ = srv1.Serve(sctx1, l)
	}()

	rel := keyedRel(120000, 40)
	ops := []engine.OpDesc{engine.AddColumn("w", relation.KindFloat, "v * 0.5")}
	parts := 6
	want := shuffleChaosWant(t, ctx, rel, ops, parts)

	drv := &Driver{
		Addrs:            []string{addrs0[0], addr1},
		SlotsPerExecutor: 1,
		MaxRetries:       8,
		ReconnectBase:    10 * time.Millisecond,
		SlotFailureLimit: 500, // survive the restart window
	}
	type result struct {
		out *relation.Relation
		st  engine.Stats
		err error
	}
	resCh := make(chan result, 1)
	go func() {
		out, st, err := drv.ShuffleMaterialize(ctx, rel, ops, []string{"k"}, parts)
		resCh <- result{out, st, err}
	}()

	// Let the doomed executor commit shuffle state, then kill it.
	for srv1.TasksRun() < 2 && ctx.Err() == nil {
		time.Sleep(time.Millisecond)
	}
	kill1()
	<-served1

	l2, err := net.Listen("tcp", addr1)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := &ExecutorServer{Capacity: 1}
	sctx2, kill2 := context.WithCancel(ctx)
	served2 := make(chan struct{})
	go func() {
		defer close(served2)
		_ = srv2.Serve(sctx2, l2)
	}()
	defer func() { kill2(); <-served2 }()

	r := <-resCh
	if r.err != nil {
		t.Fatalf("killed executor aborted the shuffle: %v", r.err)
	}
	mustSamePartitioned(t, "killed executor", want, r.out)
	if r.st.Reconnects == 0 {
		t.Fatalf("expected reconnects after the kill, stats = %+v", r.st)
	}
}

// TestChaosShuffleBeginDelayed pins the begin-before-map ordering
// regardless of timing: the begin ack on executor 1's first connection
// (the control connection the driver opens the shuffle on) is held
// back, yet no map task may push to executor 1 before it holds the
// shuffle, so nothing is rejected and nothing retries.
func TestChaosShuffleBeginDelayed(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	addrs, stop, err := StartLocalCluster(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	proxy, err := faultproxy.New(addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	plan := faultproxy.Passthrough()
	plan.Latency = 200 * time.Millisecond
	plan.Once = true
	proxy.SetPlan(plan)

	drv := &Driver{Addrs: []string{addrs[0], proxy.Addr()}, ReconnectBase: 10 * time.Millisecond}
	rel := keyedRel(400, 4)
	want, err := rel.PartitionByKey(4, "k")
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := drv.ShuffleMaterialize(ctx, rel, nil, []string{"k"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	mustSamePartitioned(t, "delayed begin", want, got)
	if st.Retries != 0 {
		t.Fatalf("map tasks retried %d time(s) behind a delayed begin, stats = %+v", st.Retries, st)
	}
}

package cluster

import (
	"bytes"
	"compress/flate"
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"ivnt/internal/engine"
	"ivnt/internal/relation"
	"ivnt/internal/rules"
)

func traceRel(n, parts int) *relation.Relation {
	s := relation.NewSchema(
		relation.Column{Name: "t", Kind: relation.KindFloat},
		relation.Column{Name: "mid", Kind: relation.KindInt},
		relation.Column{Name: "l", Kind: relation.KindBytes},
		relation.Column{Name: "bid", Kind: relation.KindString},
	)
	rows := make([]relation.Row, n)
	for i := range rows {
		rows[i] = relation.Row{
			relation.Float(float64(i) * 0.1),
			relation.Int(int64(3 + i%2)),
			relation.Bytes([]byte{byte(i % 5), byte(i % 3)}),
			relation.Str("FC"),
		}
	}
	return relation.FromRows(s, rows).Repartition(parts)
}

// wiperTranslations interpret traceRel's two message ids.
func wiperTranslations() []rules.Translation {
	return []rules.Translation{
		{SID: "wpos", Channel: "FC", MsgID: 3, FirstByte: 0, LastByte: 1, Rule: "byteat(lrel, 0)"},
		{SID: "wvel", Channel: "FC", MsgID: 4, FirstByte: 0, LastByte: 1, Rule: "byteat(lrel, 1) * 2"},
	}
}

func stageOps() []engine.OpDesc {
	return []engine.OpDesc{
		engine.Filter("mid == 3"),
		engine.AddColumn("v", relation.KindFloat, "0.5 * byteat(l, 0)"),
	}
}

// connState is the minimal executor-side v3 connection state used by
// scripted/adversarial test executors speaking the wire protocol
// directly.
type connState struct {
	stages map[uint64]*engine.StagePipeline
	tables map[uint64][]relation.Row
}

func newConnState() *connState {
	return &connState{stages: map[uint64]*engine.StagePipeline{}, tables: map[uint64][]relation.Row{}}
}

// recvTask consumes frames — registering any stage shipments — until a
// task frame arrives, and returns it with its compiled pipeline.
func (cs *connState) recvTask(c *conn) (*taskMsg, *engine.StagePipeline, error) {
	for {
		var hdr frameHdr
		if err := c.dec.Decode(&hdr); err != nil {
			return nil, nil, err
		}
		switch hdr.Kind {
		case frameStage:
			var st stageMsg
			if err := c.dec.Decode(&st); err != nil {
				return nil, nil, err
			}
			pipe, err := (&ExecutorServer{}).registerStage(&st, cs.tables)
			if err != nil {
				return nil, nil, err
			}
			cs.stages[st.Fingerprint] = pipe
		case frameTask:
			var task taskMsg
			if err := c.dec.Decode(&task); err != nil {
				return nil, nil, err
			}
			return &task, cs.stages[task.Stage], nil
		default:
			return nil, nil, fmt.Errorf("unknown frame kind %d", hdr.Kind)
		}
	}
}

func TestClusterMatchesLocal(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	addrs, stop, err := StartLocalCluster(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	rel := traceRel(500, 8)
	drv := &Driver{Addrs: addrs, SlotsPerExecutor: 2}
	got, st, err := drv.RunStage(ctx, rel, stageOps())
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := engine.NewLocal(2).RunStage(ctx, rel, stageOps())
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != want.NumRows() {
		t.Fatalf("cluster rows = %d, local = %d", got.NumRows(), want.NumRows())
	}
	gr, wr := got.Rows(), want.Rows()
	for i := range gr {
		if !gr[i].Equal(wr[i]) {
			t.Fatalf("row %d differs: %v vs %v", i, gr[i], wr[i])
		}
	}
	if st.Tasks != 8 || st.Partitions != 8 {
		t.Fatalf("stats = %+v", st)
	}
	if !got.Schema.Has("v") {
		t.Fatalf("schema missing computed column: %s", got.Schema)
	}
}

func TestClusterBroadcastJoin(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	addrs, stop, err := StartLocalCluster(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	ops := []engine.OpDesc{engine.Interpret(wiperTranslations())}
	rel := traceRel(100, 4)
	drv := &Driver{Addrs: addrs}
	got, _, err := drv.RunStage(ctx, rel, ops)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 100 {
		t.Fatalf("rows = %d, want 100", got.NumRows())
	}
	sidIdx := got.Schema.MustIndex("sid")
	vIdx := got.Schema.MustIndex("v")
	payload := map[float64][]byte{}
	for _, r := range rel.Rows() {
		payload[r[0].F] = r[2].B
	}
	for _, r := range got.Rows() {
		l := payload[r[0].F]
		var want int64
		if r[sidIdx].AsString() == "wpos" {
			want = int64(l[0])
		} else {
			want = int64(l[1]) * 2
		}
		if r[vIdx].AsInt() != want {
			t.Fatalf("interpreted %v, want %d (%v)", r[vIdx], want, r)
		}
	}
}

func TestClusterTaskErrorAborts(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	addrs, stop, err := StartLocalCluster(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	// A per-row rule that fails to compile is a deterministic task
	// error: no retry, stage aborts.
	ops := []engine.OpDesc{engine.Interpret([]rules.Translation{
		{SID: "bad", Channel: "FC", MsgID: 3, FirstByte: 0, LastByte: 0, Rule: "byteat("},
	})}
	drv := &Driver{Addrs: addrs}
	if _, _, err := drv.RunStage(ctx, traceRel(50, 4), ops); err == nil {
		t.Fatal("expected task error to abort stage")
	}
}

func TestClusterBadPlanRejectedOnDriver(t *testing.T) {
	drv := &Driver{Addrs: []string{"127.0.0.1:1"}} // never dialed
	_, _, err := drv.RunStage(context.Background(), traceRel(10, 1),
		[]engine.OpDesc{engine.Filter("nosuchcol > 0")})
	if err == nil {
		t.Fatal("bad plan must be rejected before dialing")
	}
}

func TestClusterNoExecutors(t *testing.T) {
	drv := &Driver{}
	if _, _, err := drv.RunStage(context.Background(), traceRel(10, 1), stageOps()); err == nil {
		t.Fatal("driver without addresses must fail")
	}
}

func TestClusterAllExecutorsUnreachable(t *testing.T) {
	drv := &Driver{
		Addrs:       []string{"127.0.0.1:1"},
		DialTimeout: 200 * time.Millisecond,
		// Fast backoff so the slots burn through their failure budget
		// quickly; correctness is the same at any speed.
		ReconnectBase: time.Millisecond,
		ReconnectMax:  4 * time.Millisecond,
	}
	_, _, err := drv.RunStage(context.Background(), traceRel(10, 2), stageOps())
	if err == nil {
		t.Fatal("unreachable executors must fail the stage")
	}
	if !strings.Contains(err.Error(), "undeliverable") {
		t.Fatalf("err = %v, want undeliverable", err)
	}
}

func TestClusterSurvivesOneDeadExecutor(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	addrs, stop, err := StartLocalCluster(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	// One live executor, one address that refuses connections.
	drv := &Driver{Addrs: []string{addrs[0], "127.0.0.1:1"}, DialTimeout: 200 * time.Millisecond}
	got, _, err := drv.RunStage(ctx, traceRel(200, 6), stageOps())
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 100 {
		t.Fatalf("rows = %d, want 100", got.NumRows())
	}
}

func TestClusterRetryOnConnectionDrop(t *testing.T) {
	// An adversarial executor that accepts, handshakes, then drops the
	// first task connection mid-stream; a healthy executor must pick up
	// the requeued partition.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	addrs, stop, err := StartLocalCluster(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	evil, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer evil.Close()
	var once sync.Once
	evilGotTask := make(chan struct{})
	go func() {
		for {
			raw, err := evil.Accept()
			if err != nil {
				return
			}
			go func(raw net.Conn) {
				c := newConn(raw)
				var hello helloMsg
				if c.dec.Decode(&hello) != nil {
					return
				}
				_ = c.enc.Encode(helloAck{OK: true, Version: protocolVersion, Capacity: 1})
				cs := newConnState()
				if _, _, err := cs.recvTask(c); err != nil {
					return
				}
				once.Do(func() { raw.Close(); close(evilGotTask) }) // drop first task
				// Subsequent connections: politely run nothing and hang
				// up too (driver should stop using us).
				raw.Close()
			}(raw)
		}
	}()

	// The healthy executor sits behind a gate that holds its
	// connections until the adversarial one has drawn a task, so the
	// dropped task is certain to happen rather than depending on which
	// slot wins the first partitions.
	healthy := gateProxy(t, ctx, addrs[0], evilGotTask, nil, nil)

	drv := &Driver{Addrs: []string{healthy, evil.Addr().String()}, MaxRetries: 3}
	got, st, err := drv.RunStage(ctx, traceRel(200, 4), stageOps())
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 100 {
		t.Fatalf("rows = %d, want 100", got.NumRows())
	}
	if st.Retries == 0 {
		t.Fatal("expected at least one retry to be recorded")
	}
}

// gateProxy listens in front of the executor at backend, for tests
// that must pin which executor draws the first tasks; it returns the
// proxy's address. A connection is forwarded only once open is closed.
// Past the driver's hello, the first bytes the driver sends (a stage or
// task frame) close drew and reach the executor only once release is
// closed. A nil channel skips its step. The proxy closes when the test
// ends.
func gateProxy(t *testing.T, ctx context.Context, backend string, open, release <-chan struct{}, drew chan struct{}) string {
	t.Helper()
	var hello bytes.Buffer
	if err := gob.NewEncoder(&hello).Encode(helloMsg{Magic: magic, Version: protocolVersion}); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var once sync.Once
	wait := func(ch <-chan struct{}) bool {
		if ch == nil {
			return true
		}
		select {
		case <-ch:
			return true
		case <-ctx.Done():
			return false
		}
	}
	go func() {
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer down.Close()
				if !wait(open) {
					return
				}
				up, err := net.Dial("tcp", backend)
				if err != nil {
					return
				}
				defer up.Close()
				go func() {
					defer up.Close()
					if _, err := io.CopyN(up, down, int64(hello.Len())); err != nil {
						return
					}
					first := make([]byte, 1)
					if _, err := io.ReadFull(down, first); err != nil {
						return
					}
					if drew != nil {
						once.Do(func() { close(drew) })
					}
					if !wait(release) {
						return
					}
					if _, err := up.Write(first); err != nil {
						return
					}
					_, _ = io.Copy(up, down)
				}()
				_, _ = io.Copy(down, up)
			}()
		}
	}()
	return ln.Addr().String()
}

func TestExecutorRejectsBadMagic(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	addrs, stop, err := StartLocalCluster(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	raw, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	c := newConn(raw)
	if err := c.enc.Encode(helloMsg{Magic: "BAD!", Version: protocolVersion}); err != nil {
		t.Fatal(err)
	}
	var ack helloAck
	if err := c.dec.Decode(&ack); err != nil {
		t.Fatal(err)
	}
	if ack.OK {
		t.Fatal("executor accepted bad magic")
	}
}

func TestDriverName(t *testing.T) {
	drv := &Driver{Addrs: []string{"a", "b"}, SlotsPerExecutor: 3}
	if drv.Name() != "cluster[2 executors x 3 slots]" {
		t.Fatalf("Name = %q", drv.Name())
	}
}

func TestClusterConcurrentStages(t *testing.T) {
	// One driver, many concurrent RunStage calls — the multi-domain
	// situation where several analyses share the cluster.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	addrs, stop, err := StartLocalCluster(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	drv := &Driver{Addrs: addrs, SlotsPerExecutor: 2}
	rel := traceRel(300, 5)
	const stages = 8
	errs := make(chan error, stages)
	for i := 0; i < stages; i++ {
		go func() {
			out, _, err := drv.RunStage(ctx, rel, stageOps())
			if err == nil && out.NumRows() != 150 {
				err = fmt.Errorf("rows = %d", out.NumRows())
			}
			errs <- err
		}()
	}
	for i := 0; i < stages; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestClusterLargePartitions(t *testing.T) {
	// Multi-megabyte partitions must stream through gob without
	// corruption.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	addrs, stop, err := StartLocalCluster(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	s := relation.NewSchema(
		relation.Column{Name: "mid", Kind: relation.KindInt},
		relation.Column{Name: "l", Kind: relation.KindBytes},
	)
	rows := make([]relation.Row, 20000)
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i)
	}
	for i := range rows {
		rows[i] = relation.Row{relation.Int(int64(i % 2)), relation.Bytes(payload)}
	}
	rel := relation.FromRows(s, rows).Repartition(4)
	drv := &Driver{Addrs: addrs}
	out, _, err := drv.RunStage(ctx, rel, []engine.OpDesc{engine.Filter("mid == 0")})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 10000 {
		t.Fatalf("rows = %d", out.NumRows())
	}
	lIdx := out.Schema.MustIndex("l")
	got := out.Rows()[9999][lIdx].B
	for i := range got {
		if got[i] != byte(i) {
			t.Fatalf("payload corrupted at byte %d", i)
		}
	}
}

func TestClusterEmptyRelation(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	addrs, stop, err := StartLocalCluster(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	drv := &Driver{Addrs: addrs}
	empty := traceRel(0, 1)
	out, _, err := drv.RunStage(ctx, empty, stageOps())
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 0 {
		t.Fatalf("rows = %d", out.NumRows())
	}
}

func TestClusterContextCancellation(t *testing.T) {
	addrs, stop, err := StartLocalCluster(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled
	drv := &Driver{Addrs: addrs}
	if _, _, err := drv.RunStage(ctx, traceRel(100, 4), stageOps()); err == nil {
		t.Fatal("cancelled context must fail the stage")
	}
}

func TestDistributedAggregationOverTCP(t *testing.T) {
	// The reduceByKey analogue: map-side partial aggregation runs on
	// remote executors; the driver merges. Must match local Aggregate.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	addrs, stop, err := StartLocalCluster(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	rel := traceRel(400, 8)
	aggs := []engine.AggSpec{
		{Fn: engine.AggCount, As: "n"},
		{Fn: engine.AggMean, Col: "t", As: "meanT"},
		{Fn: engine.AggMax, Col: "t", As: "maxT"},
	}
	want, err := engine.Aggregate(rel, []string{"mid"}, aggs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := engine.AggregateDistributed(ctx, &Driver{Addrs: addrs}, rel, []string{"mid"}, aggs)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != want.NumRows() {
		t.Fatalf("groups %d vs %d", got.NumRows(), want.NumRows())
	}
	gr, wr := got.Rows(), want.Rows()
	for i := range gr {
		for j := range gr[i] {
			// Partial sums combine in a different order than the local
			// single pass; float results agree only up to rounding.
			a, b := gr[i][j].AsFloat(), wr[i][j].AsFloat()
			if diff := a - b; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("group %d col %d: %v vs %v", i, j, gr[i][j], wr[i][j])
			}
		}
	}
}

func TestExecutorAddrAndTasksRun(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &ExecutorServer{Capacity: 2}
	if srv.Addr() != nil {
		t.Fatal("Addr before Serve must be nil")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ctx, l)
	}()
	drv := &Driver{Addrs: []string{l.Addr().String()}}
	if _, _, err := drv.RunStage(ctx, traceRel(50, 3), stageOps()); err != nil {
		t.Fatal(err)
	}
	if srv.Addr() == nil {
		t.Fatal("Addr after Serve must be set")
	}
	if srv.TasksRun() != 3 {
		t.Fatalf("tasks run = %d, want 3", srv.TasksRun())
	}
	cancel()
	<-done
}

// TestClusterMatchesLocalCompressed is the byte-identical equivalence
// check with the DEFLATE flag on: compression must be invisible to
// results.
func TestClusterMatchesLocalCompressed(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	addrs, stop, err := StartLocalCluster(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	ops := []engine.OpDesc{engine.Interpret(wiperTranslations())}
	rel := traceRel(600, 7)
	want, _, err := engine.NewLocal(2).RunStage(ctx, rel, ops)
	if err != nil {
		t.Fatal(err)
	}
	// Level 0 is flate.BestSpeed by default; BestCompression must be
	// equally invisible to results.
	for _, cfg := range []struct {
		compress bool
		level    int
	}{{false, 0}, {true, 0}, {true, flate.BestCompression}} {
		drv := &Driver{Addrs: addrs, SlotsPerExecutor: 2, Compress: cfg.compress, CompressLevel: cfg.level}
		got, st, err := drv.RunStage(ctx, rel, ops)
		if err != nil {
			t.Fatalf("compress=%v level=%d: %v", cfg.compress, cfg.level, err)
		}
		if got.NumRows() != want.NumRows() {
			t.Fatalf("compress=%v level=%d: rows = %d, want %d", cfg.compress, cfg.level, got.NumRows(), want.NumRows())
		}
		gr, wr := got.Rows(), want.Rows()
		for i := range gr {
			if !gr[i].Equal(wr[i]) {
				t.Fatalf("compress=%v level=%d: row %d differs: %v vs %v", cfg.compress, cfg.level, i, gr[i], wr[i])
			}
		}
		if st.BytesSent == 0 || st.BytesRecv == 0 {
			t.Fatalf("compress=%v level=%d: wire byte counters not populated: %+v", cfg.compress, cfg.level, st)
		}
	}
}

// TestStageShippedOncePerConnection: with one executor and one slot the
// stage must cross the wire exactly once, however many tasks follow.
func TestStageShippedOncePerConnection(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	addrs, stop, err := StartLocalCluster(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	drv := &Driver{Addrs: addrs, SlotsPerExecutor: 1}
	_, st, err := drv.RunStage(ctx, traceRel(400, 8), stageOps())
	if err != nil {
		t.Fatal(err)
	}
	if st.Tasks != 8 {
		t.Fatalf("Tasks = %d, want 8", st.Tasks)
	}
	if st.StagesShipped != 1 {
		t.Fatalf("StagesShipped = %d, want exactly 1 (stage must not ride along with every task)", st.StagesShipped)
	}
}

// TestV3DriverRejectedByV2Executor: a legacy executor that only accepts
// protocol version 2 must refuse the v3 driver's handshake, and the
// driver must fail the stage rather than talk past it.
func TestV3DriverRejectedByV2Executor(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			raw, err := l.Accept()
			if err != nil {
				return
			}
			go func(raw net.Conn) {
				defer raw.Close()
				c := newConn(raw)
				var hello helloMsg
				if c.dec.Decode(&hello) != nil {
					return
				}
				// A v2 executor's exact acceptance check.
				ok := hello.Magic == magic && hello.Version == 2
				_ = c.enc.Encode(helloAck{OK: ok, Version: 2, Capacity: 1})
			}(raw)
		}
	}()
	drv := &Driver{Addrs: []string{l.Addr().String()}, DialTimeout: time.Second}
	_, _, err = drv.RunStage(context.Background(), traceRel(10, 2), stageOps())
	if err == nil {
		t.Fatal("v2 executor must reject the v3 driver and fail the stage")
	}
	if !strings.Contains(err.Error(), "undeliverable") {
		t.Fatalf("err = %v, want undeliverable (no usable executor)", err)
	}
}

func TestDriverRejectsWrongVersionExecutor(t *testing.T) {
	// An "executor" speaking a different protocol version: the driver's
	// handshake must fail, and with no other executors the stage fails.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			raw, err := l.Accept()
			if err != nil {
				return
			}
			go func(raw net.Conn) {
				defer raw.Close()
				c := newConn(raw)
				var hello helloMsg
				if c.dec.Decode(&hello) != nil {
					return
				}
				_ = c.enc.Encode(helloAck{OK: false, Version: 999})
			}(raw)
		}
	}()
	drv := &Driver{Addrs: []string{l.Addr().String()}, DialTimeout: time.Second}
	if _, _, err := drv.RunStage(context.Background(), traceRel(10, 2), stageOps()); err == nil {
		t.Fatal("version mismatch must fail the stage")
	}
}

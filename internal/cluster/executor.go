package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"ivnt/internal/colcodec"
	"ivnt/internal/engine"
	"ivnt/internal/memgov"
	"ivnt/internal/relation"
	"ivnt/internal/segstore"
)

// ExecutorServer is one worker node: it accepts driver connections and
// applies stage pipelines to the partitions it is handed.
type ExecutorServer struct {
	// Capacity advertised in the handshake; informational only.
	Capacity int
	// Logf, when set, receives connection lifecycle messages.
	Logf func(format string, args ...any)
	// HandshakeTimeout bounds the hello exchange on a new connection, so
	// a client that connects and sends nothing cannot hold a handler
	// goroutine forever. 0 means the 10s default; negative disables.
	HandshakeTimeout time.Duration
	// WriteTimeout bounds sending one result back to the driver. 0 means
	// the 1m default; negative disables.
	WriteTimeout time.Duration
	// PushTimeout bounds one shuffle peer push round trip (chunk write +
	// ack read) when the driver's shuffleBeginMsg does not set one. 0
	// means the 30s default.
	PushTimeout time.Duration

	// shuffles holds this executor's open shuffles (protocol v4); peers
	// pools its outgoing executor-to-executor connections.
	shuffles shuffleStore
	peers    peerPool

	mu         sync.Mutex
	listener   net.Listener
	tasksRun   int
	stagesRecv int
	draining   bool
	conns      map[*conn]struct{}
	handlers   sync.WaitGroup
}

// TasksRun reports how many tasks this executor has completed.
func (s *ExecutorServer) TasksRun() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tasksRun
}

// StagesReceived reports how many stage shipments (stageMsg frames)
// this executor has accepted — one per stage per driver connection,
// plus re-shipments after reconnects. Chaos tests assert on it.
func (s *ExecutorServer) StagesReceived() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stagesRecv
}

// Addr returns the listen address once Serve has bound it.
func (s *ExecutorServer) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener == nil {
		return nil
	}
	return s.listener.Addr()
}

func (s *ExecutorServer) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

func (s *ExecutorServer) handshakeTimeout() time.Duration {
	switch {
	case s.HandshakeTimeout > 0:
		return s.HandshakeTimeout
	case s.HandshakeTimeout < 0:
		return 0
	default:
		return 10 * time.Second
	}
}

func (s *ExecutorServer) writeTimeout() time.Duration {
	switch {
	case s.WriteTimeout > 0:
		return s.WriteTimeout
	case s.WriteTimeout < 0:
		return 0
	default:
		return time.Minute
	}
}

func (s *ExecutorServer) pushTimeout() time.Duration {
	if s.PushTimeout > 0 {
		return s.PushTimeout
	}
	return defaultPushTimeout
}

// ListenAndServe binds addr (e.g. ":7077" or "127.0.0.1:0") and serves
// until ctx is cancelled.
func (s *ExecutorServer) ListenAndServe(ctx context.Context, addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, l)
}

// Serve accepts connections on l until ctx is cancelled or the
// listener is closed (see Shutdown). Each connection is handled on its
// own goroutine, so one executor process serves many driver
// connections concurrently (the "5 virtual CPUs per executor" of the
// paper's setup corresponds to slots-per-executor on the driver side).
func (s *ExecutorServer) Serve(ctx context.Context, l net.Listener) error {
	s.mu.Lock()
	s.listener = l
	if s.conns == nil {
		s.conns = make(map[*conn]struct{})
	}
	s.mu.Unlock()

	stop := context.AfterFunc(ctx, func() {
		_ = l.Close()
		s.closeConns()
	})
	defer stop()
	defer s.handlers.Wait()
	// Outgoing peer connections and shuffle state die with the server:
	// grants release, spill files unlink.
	defer s.peers.closeAll()
	defer s.shuffles.freeAll()
	for {
		raw, err := l.Accept()
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.handlers.Add(1)
		go func() {
			defer s.handlers.Done()
			s.handle(ctx, newConn(raw))
		}()
	}
}

// Shutdown drains the executor gracefully: it stops accepting new
// connections, wakes handlers waiting for a task, lets in-flight
// tasks finish (and their results be sent) for up to grace, then
// force-closes whatever is left and waits for all handlers to exit.
func (s *ExecutorServer) Shutdown(grace time.Duration) {
	s.mu.Lock()
	s.draining = true
	l := s.listener
	s.mu.Unlock()
	if l != nil {
		_ = l.Close()
	}
	s.drainConns()

	done := make(chan struct{})
	go func() {
		s.handlers.Wait()
		close(done)
	}()
	if grace > 0 {
		t := time.NewTimer(grace)
		defer t.Stop()
		select {
		case <-done:
			return
		case <-t.C:
		}
	}
	s.closeConns() // force
	<-done
}

// drainConns expires the read deadline on every tracked connection:
// handlers blocked waiting for the next task wake immediately and
// exit, while a task that was already decoded keeps running and its
// result write still goes out (writes are unaffected by the read
// deadline). Closing "idle" connections instead would race with the
// instant between a task being decoded and the handler marking itself
// busy, dropping that task's result.
func (s *ExecutorServer) drainConns() {
	s.mu.Lock()
	cs := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		cs = append(cs, c)
	}
	s.mu.Unlock()
	now := time.Now()
	for _, c := range cs {
		_ = c.raw.SetReadDeadline(now)
	}
}

// closeConns force-closes every tracked connection.
func (s *ExecutorServer) closeConns() {
	s.mu.Lock()
	victims := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		victims = append(victims, c)
	}
	s.mu.Unlock()
	for _, c := range victims {
		c.close()
	}
}

func (s *ExecutorServer) track(c *conn) {
	s.mu.Lock()
	if s.conns == nil {
		s.conns = make(map[*conn]struct{})
	}
	s.conns[c] = struct{}{}
	s.mu.Unlock()
}

func (s *ExecutorServer) untrack(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

func (s *ExecutorServer) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

func (s *ExecutorServer) handle(ctx context.Context, c *conn) {
	defer c.close()
	s.track(c)
	defer s.untrack(c)
	mExecConns.Add(1)
	defer mExecConns.Add(-1)

	if ht := s.handshakeTimeout(); ht > 0 {
		_ = c.raw.SetReadDeadline(time.Now().Add(ht))
	}
	var hello helloMsg
	if err := c.dec.Decode(&hello); err != nil {
		s.logf("cluster executor: bad hello: %v", err)
		return
	}
	_ = c.raw.SetReadDeadline(time.Time{})
	ok := hello.Magic == magic && hello.Version == protocolVersion
	capacity := s.Capacity
	if capacity <= 0 {
		capacity = 1
	}
	if err := c.enc.Encode(helloAck{OK: ok, Version: protocolVersion, Capacity: capacity}); err != nil {
		return
	}
	if !ok {
		s.logf("cluster executor: rejected connection (magic %q version %d)", hello.Magic, hello.Version)
		return
	}

	// Per-connection stage state. The driver guarantees a stage frame
	// precedes any task referencing it on the same connection, so these
	// maps are always warm by the time a task arrives. Lifetime equals
	// the connection, which is exactly the driver's book-keeping scope:
	// after a reconnect both sides start empty and the stage re-ships.
	// Compiled pipelines are additionally deduplicated process-wide by
	// content fingerprint (engine.CompileStageAs), so N slot
	// connections compile — and build the broadcast hash table of — a
	// given stage once.
	stages := map[uint64]*engine.StagePipeline{}
	stageErrs := map[uint64]error{}
	tables := map[uint64][]relation.Row{}
	// In-flight shuffle push streams on this connection (protocol v4).
	// Scoped to the connection like the stage caches: a dropped peer
	// connection drops its partial streams and the retried map task
	// starts a fresh sequence.
	pend := map[pushKey]*pendingRun{}

	// reply sends one response frame under the write timeout.
	reply := func(what string, v any) bool {
		if wt := s.writeTimeout(); wt > 0 {
			_ = c.raw.SetWriteDeadline(time.Now().Add(wt))
		}
		err := c.enc.Encode(v)
		_ = c.raw.SetWriteDeadline(time.Time{})
		if err != nil {
			s.logf("cluster executor: send %s: %v", what, err)
			return false
		}
		return true
	}

	for ctx.Err() == nil && !s.isDraining() {
		var hdr frameHdr
		if err := c.dec.Decode(&hdr); err != nil {
			// Connection closed by driver (or by drain); normal end of
			// stream.
			return
		}
		switch hdr.Kind {
		case frameStage:
			var st stageMsg
			if err := c.dec.Decode(&st); err != nil {
				return
			}
			s.mu.Lock()
			s.stagesRecv++
			s.mu.Unlock()
			mExecStages.Inc()
			pipe, err := s.registerStage(&st, tables)
			if err != nil {
				// A stage that fails to materialize or compile is
				// deterministic; remember the error and report it on
				// the tasks that reference the stage.
				stageErrs[st.Fingerprint] = err
			} else {
				stages[st.Fingerprint] = pipe
			}
		case frameTask:
			var task taskMsg
			if err := c.dec.Decode(&task); err != nil {
				return
			}
			res, fatal := s.runTask(stages, stageErrs, &task)
			if fatal {
				// Corrupt partition payload: drop the connection so the
				// driver treats it as a transport failure and retries,
				// instead of aborting the whole stage.
				s.logf("cluster executor: task %d: corrupt partition payload", task.ID)
				return
			}
			if !reply(fmt.Sprintf("result %d", task.ID), res) {
				return
			}
		case frameShuffleBegin:
			var msg shuffleBeginMsg
			if err := c.dec.Decode(&msg); err != nil {
				return
			}
			var ack shuffleBeginAck
			if _, err := s.shuffles.begin(&msg, s.pushTimeout()); err != nil {
				ack.Err = err.Error()
			}
			if !reply("shuffle begin ack", ack) {
				return
			}
		case frameShuffleMap:
			var task shuffleMapMsg
			if err := c.dec.Decode(&task); err != nil {
				return
			}
			ack, fatal := s.runShuffleMap(stages, stageErrs, &task)
			if fatal {
				s.logf("cluster executor: shuffle map %d: corrupt partition payload", task.ID)
				return
			}
			if !reply(fmt.Sprintf("shuffle map ack %d", task.ID), ack) {
				return
			}
		case frameShufflePush:
			var msg shufflePushMsg
			if err := c.dec.Decode(&msg); err != nil {
				return
			}
			if !reply("shuffle push ack", s.handleShufflePush(pend, &msg)) {
				return
			}
		case frameShuffleBarrier:
			var msg shuffleBarrierMsg
			if err := c.dec.Decode(&msg); err != nil {
				return
			}
			var ack shuffleBarrierAck
			if st := s.shuffles.get(msg.Shuffle); st == nil {
				ack.Err = fmt.Sprintf("unknown shuffle %#x", msg.Shuffle)
			} else {
				ack.Missing, ack.Rows, ack.Bytes = st.missing(msg.Sources)
			}
			if !reply("shuffle barrier ack", ack) {
				return
			}
		case frameShuffleReduce:
			var msg shuffleReduceMsg
			if err := c.dec.Decode(&msg); err != nil {
				return
			}
			if !reply(fmt.Sprintf("shuffle reduce ack %d", msg.Part), s.runShuffleReduce(&msg)) {
				return
			}
		case frameShuffleFree:
			var msg shuffleFreeMsg
			if err := c.dec.Decode(&msg); err != nil {
				return
			}
			s.shuffles.free(msg.Shuffles)
			if !reply("shuffle free ack", shuffleFreeAck{}) {
				return
			}
		default:
			s.logf("cluster executor: unknown frame kind %d", hdr.Kind)
			return
		}
	}
}

// registerStage decodes a stage shipment: broadcast tables land in the
// connection's content-hash cache, table references in the pipeline are
// materialized from it, and the stage compiles through the process-wide
// pipeline cache keyed by the driver's fingerprint.
func (s *ExecutorServer) registerStage(st *stageMsg, tables map[uint64][]relation.Row) (*engine.StagePipeline, error) {
	for _, t := range st.Tables {
		rows, err := colcodec.Decode(t.Schema, t.Data)
		if err != nil {
			return nil, fmt.Errorf("broadcast table %#x: %w", t.Hash, err)
		}
		tables[t.Hash] = rows
	}
	ops := make([]engine.OpDesc, len(st.Ops))
	copy(ops, st.Ops)
	for i, op := range ops {
		if op.Join == nil || op.Join.Rows != nil {
			continue
		}
		rows, ok := tables[op.Join.TableHash]
		if !ok {
			return nil, fmt.Errorf("broadcast table %#x referenced but never shipped", op.Join.TableHash)
		}
		j := *op.Join
		j.Rows = rows
		ops[i].Join = &j
	}
	return engine.CompileStageAs(st.Fingerprint, st.Schema, ops)
}

// runTask applies the cached stage pipeline to one columnar partition.
// fatal=true means the partition payload itself was undecodable and the
// connection should be dropped (retryable corruption); every other
// failure is reported as a task error, classified for the driver:
// retryable (spill I/O faults), panicked (a recovered op panic), or
// deterministic (everything else, aborts the stage). Every result also
// snapshots the memory governor so the driver sees executor pressure.
func (s *ExecutorServer) runTask(stages map[uint64]*engine.StagePipeline, stageErrs map[uint64]error, task *taskMsg) (res resultMsg, fatal bool) {
	defer func() {
		g := memgov.Default()
		res.MemUsed, res.MemBudget = g.Used(), g.Budget()
	}()
	fail := func(err error) resultMsg {
		return resultMsg{
			ID: task.ID, Epoch: task.Epoch, Span: task.Span, Err: err.Error(),
			Retryable: engine.IsRetryable(err), Panicked: engine.IsPanic(err),
		}
	}
	pipe, ok := stages[task.Stage]
	if !ok {
		if err := stageErrs[task.Stage]; err != nil {
			return fail(err), false
		}
		return fail(fmt.Errorf("unknown stage %#x (driver sent task before stage)", task.Stage)), false
	}
	t0 := time.Now()
	var rows []relation.Row
	if task.SegPath != "" {
		// Segment-backed task (protocol v4): read the named segment file
		// directly instead of decoding driver-shipped bytes. A read
		// failure is environmental (file on shared storage, executor
		// may lack it transiently) and therefore retryable elsewhere; a
		// segment whose columns don't match the stage's input schema is
		// a planning bug and aborts deterministically.
		s, segRows, err := segstore.ReadSegmentRows(task.SegPath, task.SegCols, task.SegRanges)
		if err != nil {
			return fail(engine.Retryable(fmt.Errorf("segment %s: %w", task.SegPath, err))), false
		}
		if !s.Equal(pipe.InputSchema()) {
			return fail(fmt.Errorf("segment %s: schema %s does not match stage input %s", task.SegPath, s, pipe.InputSchema())), false
		}
		rows = segRows
	} else {
		var err error
		rows, err = colcodec.Decode(pipe.InputSchema(), task.Data)
		if err != nil {
			return resultMsg{}, true
		}
	}
	decodeNs := time.Since(t0).Nanoseconds()
	// The decoded partition is this task's resident input; reserving it
	// with the governor makes spilling operators see honest pressure
	// when several slot connections run tasks concurrently.
	var gr *memgov.Grant
	if g := memgov.Default(); !g.Unlimited() {
		gr = g.ForceGrant(engine.RowsFootprint(rows))
	}
	t1 := time.Now()
	out, err := pipe.ApplyContained(rows)
	if err != nil {
		gr.Release()
		if engine.IsPanic(err) {
			mExecPanics.Inc()
			s.logf("cluster executor: task %d: contained panic: %v", task.ID, err)
		}
		return fail(err), false
	}
	execNs := time.Since(t1).Nanoseconds()
	// Results mirror the task payload's compression choice.
	t2 := time.Now()
	data, err := colcodec.Encode(pipe.OutputSchema(), out, colcodec.Options{Compress: colcodec.IsCompressed(task.Data)})
	gr.Release()
	if err != nil {
		return fail(err), false
	}
	encodeNs := time.Since(t2).Nanoseconds()
	s.mu.Lock()
	s.tasksRun++
	s.mu.Unlock()
	mExecTasks.Inc()
	return resultMsg{
		ID: task.ID, Epoch: task.Epoch, Span: task.Span, Data: data,
		DecodeNs: decodeNs, ExecNs: execNs, EncodeNs: encodeNs,
	}, false
}

// StartLocalCluster spins up n executor servers on loopback ports and
// returns their addresses plus a stop function. It backs tests, the
// fleet example and the bench harness's distributed mode.
func StartLocalCluster(ctx context.Context, n int) (addrs []string, stop func(), err error) {
	cctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	servers := make([]*ExecutorServer, 0, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			cancel()
			return nil, nil, err
		}
		srv := &ExecutorServer{Capacity: 1}
		servers = append(servers, srv)
		addrs = append(addrs, l.Addr().String())
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := srv.Serve(cctx, l); err != nil {
				srv.logf("cluster: executor: %v", err)
			}
		}()
	}
	return addrs, func() {
		cancel()
		wg.Wait()
	}, nil
}

// sanity check that Relation gob round trips; referenced by tests.
var _ = relation.Relation{}

// Driver-side shuffle orchestration (protocol v4, docs/SHUFFLE.md).
//
// A shuffle stage runs in three driver-visible phases. Begin: every
// executor receives the shuffle's configuration — the peer endpoint
// map, fan-out, hash keys and payload schema — once per connection,
// re-sent on reconnect exactly like stage shipments. Map: each input
// partition becomes one map task dispatched through a retrying work
// queue; the executor runs the shipped pipeline over it, splits the
// output by key hash (engine.ShuffleSplit, whose bucket assignment is
// relation.Row.Bucket — the same authority Relation.PartitionByKey
// uses), and pushes every bucket directly to the partition's owner,
// never through the driver, so bytes-on-wire scale with the data
// (O(rows)) instead of with executors × build-side as broadcast does.
// Barrier: the driver asks every executor which map sources its owned
// partitions are still missing; lost outputs (a crashed or restarted
// executor) re-enqueue exactly those map tasks, and the stage proceeds
// only when every (partition, source) pair has committed. Reduces then
// run partition-locally on the owners: collect (ShuffleMaterialize),
// final aggregation (ShuffleAggregate), or the broadcast-join kernel
// against a second shuffle's partition (ShuffleJoin).
package cluster

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ivnt/internal/colcodec"
	"ivnt/internal/engine"
	"ivnt/internal/relation"
)

// Shuffle IDs are unique per driver process: a time-seeded base plus a
// counter, so concurrent drivers sharing in-process executors (tests)
// never collide.
var (
	shuffleIDBase uint64 = uint64(time.Now().UnixNano())
	shuffleIDSeq  atomic.Uint64
)

func nextShuffleID() uint64 {
	return shuffleIDBase + shuffleIDSeq.Add(1)
}

// Interface conformance: the Driver is a ShuffleExecutor, so the
// planner can select shuffle plans on a cluster.
var _ engine.ShuffleExecutor = (*Driver)(nil)

// DefaultShuffleParts implements engine.ShuffleExecutor: the fan-out
// used when a plan does not pick one — ShuffleParts if configured, else
// two output partitions per executor.
func (d *Driver) DefaultShuffleParts() int {
	if d.ShuffleParts > 0 {
		return d.ShuffleParts
	}
	p := 2 * len(d.Addrs)
	if p < 2 {
		p = 2
	}
	return p
}

// shufflePeers returns the endpoint map advertised to executors.
func (d *Driver) shufflePeers() []string {
	if len(d.ShufflePeers) == len(d.Addrs) && len(d.ShufflePeers) > 0 {
		return d.ShufflePeers
	}
	return d.Addrs
}

// shuffleSession is one shuffle stage in flight: configuration, the
// map input, per-task encodings, and the per-executor control
// connections the barrier and reduce phases run on.
type shuffleSession struct {
	d         *Driver
	id        uint64
	parts     int
	keys      []string
	schema    relation.Schema // map output = push payload schema
	endpoints []string
	sources   []uint64 // all map task ids (input partition indexes)

	rel     *relation.Relation
	fp      uint64 // map stage fingerprint; 0 when the map runs no ops
	opsWire []engine.OpDesc
	tables  []tableMsg

	stats *engine.StatsCollector

	encMu    sync.Mutex
	encParts [][]byte

	ctrlMu sync.Mutex
	ctrl   map[string]*conn

	// harvested tracks how much of each connection's byte counters has
	// already been folded into stats, so harvest can run both before the
	// stats snapshot (live control conns) and again at free() without
	// double-counting.
	hMu       sync.Mutex
	harvested map[*conn][2]int64
}

// newShuffleSession validates the plan and prepares the map-stage
// shipment. stats is shared so multi-shuffle plans (joins) accumulate
// into one collector.
func (d *Driver) newShuffleSession(rel *relation.Relation, ops []engine.OpDesc, keys []string, parts int, stats *engine.StatsCollector) (*shuffleSession, error) {
	if len(d.Addrs) == 0 {
		return nil, fmt.Errorf("cluster: driver has no executor addresses")
	}
	if parts < 1 {
		parts = d.DefaultShuffleParts()
	}
	outSchema, err := engine.OutputSchema(rel.Schema, ops)
	if err != nil {
		return nil, err
	}
	if len(keys) == 0 {
		return nil, fmt.Errorf("cluster: shuffle needs key columns")
	}
	for _, k := range keys {
		if !outSchema.Has(k) {
			return nil, fmt.Errorf("cluster: shuffle key %q missing from map output schema", k)
		}
	}
	ss := &shuffleSession{
		d:         d,
		id:        nextShuffleID(),
		parts:     parts,
		keys:      keys,
		schema:    outSchema,
		endpoints: d.shufflePeers(),
		rel:       rel,
		stats:     stats,
		encParts:  make([][]byte, len(rel.Partitions)),
		ctrl:      map[string]*conn{},
		harvested: map[*conn][2]int64{},
	}
	if len(ops) > 0 {
		ss.fp, ss.opsWire, ss.tables, err = d.stageWire(rel.Schema, ops)
		if err != nil {
			return nil, err
		}
	}
	ss.sources = make([]uint64, len(rel.Partitions))
	for i := range ss.sources {
		ss.sources[i] = uint64(i)
	}
	return ss, nil
}

// beginMsg is the shuffle's configuration frame.
func (ss *shuffleSession) beginMsg() *shuffleBeginMsg {
	var pushMs int64
	if ss.d.ShufflePushTimeout > 0 {
		pushMs = ss.d.ShufflePushTimeout.Milliseconds()
		if pushMs < 1 {
			pushMs = 1
		}
	}
	return &shuffleBeginMsg{
		ID:            ss.id,
		Endpoints:     ss.endpoints,
		Parts:         ss.parts,
		Keys:          ss.keys,
		Schema:        ss.schema,
		Compress:      ss.d.Compress,
		PushTimeoutMs: pushMs,
	}
}

// ensureBegin opens the shuffle on one connection if it has not been
// opened there yet. addrIdx is the executor's slot in the endpoint map.
func (ss *shuffleSession) ensureBegin(c *conn, addrIdx int) error {
	if c.sentShuffles[ss.id] {
		return nil
	}
	msg := ss.beginMsg()
	msg.SelfIdx = addrIdx
	if err := c.enc.Encode(frameHdr{Kind: frameShuffleBegin}); err != nil {
		return &taskFailure{ioErr: err}
	}
	if err := c.enc.Encode(msg); err != nil {
		return &taskFailure{ioErr: err}
	}
	var ack shuffleBeginAck
	if err := c.dec.Decode(&ack); err != nil {
		return &taskFailure{ioErr: err}
	}
	if ack.Err != "" {
		// A rejected begin is a plan error — deterministic, not worth a
		// retry elsewhere.
		return &taskFailure{taskErr: fmt.Errorf("cluster: shuffle begin rejected: %s", ack.Err)}
	}
	c.sentShuffles[ss.id] = true
	return nil
}

// encodedPartition caches the columnar encoding of map input pi.
func (ss *shuffleSession) encodedPartition(pi int) ([]byte, error) {
	ss.encMu.Lock()
	if b := ss.encParts[pi]; b != nil {
		ss.encMu.Unlock()
		return b, nil
	}
	ss.encMu.Unlock()
	start := time.Now()
	b, err := colcodec.Encode(ss.rel.Schema, ss.rel.Partitions[pi], colcodec.Options{Compress: ss.d.Compress, Level: ss.d.CompressLevel})
	if err != nil {
		return nil, err
	}
	ss.stats.EncodeNs.Add(int64(time.Since(start)))
	ss.encMu.Lock()
	if ss.encParts[pi] == nil {
		ss.encParts[pi] = b
	} else {
		b = ss.encParts[pi]
	}
	ss.encMu.Unlock()
	return b, nil
}

// harvest folds one connection's byte counters into the session stats.
// Delta-based and idempotent: only bytes not yet harvested are added,
// so finishStats can fold live control connections in before the
// snapshot and free() can harvest the same conns again afterwards.
func (ss *shuffleSession) harvest(c *conn) {
	ss.hMu.Lock()
	prev := ss.harvested[c]
	dw, dr := c.count.written-prev[0], c.count.read-prev[1]
	ss.harvested[c] = [2]int64{c.count.written, c.count.read}
	ss.hMu.Unlock()
	ss.stats.BytesSent.Add(dw)
	ss.stats.BytesRecv.Add(dr)
	mBytesSent.Add(dw)
	mBytesRecv.Add(dr)
}

// harvestCtrl folds the live control connections' counters into stats
// (they stay open for free()).
func (ss *shuffleSession) harvestCtrl() {
	ss.ctrlMu.Lock()
	conns := make([]*conn, 0, len(ss.ctrl))
	for _, c := range ss.ctrl {
		conns = append(conns, c)
	}
	ss.ctrlMu.Unlock()
	for _, c := range conns {
		ss.harvest(c)
	}
}

// addrIdx maps an executor address to its endpoint-map slot.
func (ss *shuffleSession) addrIdx(addr string) int {
	for i, a := range ss.d.Addrs {
		if a == addr {
			return i
		}
	}
	return 0
}

// mapRun is the retrying work queue of one map round. A slimmer
// stageRun: no speculation, no admission control, no result payloads —
// map results are counters, the data went to the peers.
type mapRun struct {
	ss *shuffleSession

	mu       sync.Mutex
	work     chan int
	closed   bool
	pending  int
	done     []bool
	attempts []int
	epoch    []int
	firstErr error
	cancel   context.CancelFunc
}

func (mr *mapRun) finished() bool {
	mr.mu.Lock()
	defer mr.mu.Unlock()
	return mr.closed
}

func (mr *mapRun) closeWorkLocked() {
	if !mr.closed {
		mr.closed = true
		close(mr.work)
	}
}

func (mr *mapRun) fail(err error) {
	mr.mu.Lock()
	if mr.firstErr == nil {
		mr.firstErr = err
	}
	mr.closeWorkLocked()
	mr.mu.Unlock()
	mr.cancel()
}

// dispatch registers one launch of map task pi and returns its epoch.
func (mr *mapRun) dispatch(pi int) (int, bool) {
	mr.mu.Lock()
	defer mr.mu.Unlock()
	if mr.closed || mr.done[pi] {
		return 0, false
	}
	mr.epoch[pi]++
	return mr.epoch[pi], true
}

// commit records a completed map task; the first completion wins
// (pushes deduplicate receiver-side by (partition, source)).
func (mr *mapRun) commit(pi int, ack *shuffleMapAck) {
	mr.mu.Lock()
	if mr.done[pi] || mr.closed {
		mr.mu.Unlock()
		return
	}
	mr.done[pi] = true
	mr.pending--
	finished := mr.pending == 0
	if finished {
		mr.closeWorkLocked()
	}
	mr.mu.Unlock()
	mr.ss.stats.Tasks.Add(1)
	mr.ss.stats.ShuffleBytesPushed.Add(ack.PushedBytes)
	if finished {
		mr.cancel()
	}
}

// abandon requeues a failed launch, or fails the round when the retry
// budget is gone.
func (mr *mapRun) abandon(pi int, cause error, addr string) {
	mr.mu.Lock()
	if mr.done[pi] || mr.closed {
		mr.mu.Unlock()
		return
	}
	mr.attempts[pi]++
	attempts := mr.attempts[pi]
	tooMany := attempts > mr.ss.d.retries()
	if !tooMany {
		mr.work <- pi
	}
	mr.mu.Unlock()
	mr.ss.stats.Retries.Add(1)
	mRetries.Inc()
	if tooMany {
		mr.fail(fmt.Errorf("cluster: shuffle map %d failed %d times (last on %s): %w", pi, attempts, addr, cause))
	}
}

// runMaps dispatches the given map tasks and blocks until all
// committed or the round failed.
func (ss *shuffleSession) runMaps(ctx context.Context, tasks []int) error {
	if len(tasks) == 0 {
		return nil
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	n := len(ss.rel.Partitions)
	mr := &mapRun{
		ss:       ss,
		work:     make(chan int, len(tasks)*(ss.d.retries()+2)),
		pending:  len(tasks),
		done:     make([]bool, n),
		attempts: make([]int, n),
		epoch:    make([]int, n),
		cancel:   cancel,
	}
	for i := range mr.done {
		mr.done[i] = true
	}
	for _, pi := range tasks {
		mr.done[pi] = false
		mr.work <- pi
	}
	ss.openAll(ctx)

	var wg sync.WaitGroup
	for _, addr := range ss.d.Addrs {
		for s := 0; s < ss.d.slots(); s++ {
			wg.Add(1)
			go func(addr string) {
				defer wg.Done()
				ss.runMapSlot(cctx, addr, mr)
			}(addr)
		}
	}
	wg.Wait()

	mr.mu.Lock()
	firstErr, pending := mr.firstErr, mr.pending
	mr.mu.Unlock()
	if ctx.Err() != nil {
		return ctx.Err()
	}
	if firstErr != nil {
		return firstErr
	}
	if pending > 0 {
		return fmt.Errorf("cluster: %d shuffle map task(s) undeliverable: no executor reachable", pending)
	}
	return nil
}

// openAll opens the shuffle on every executor (over its control
// connection) before any map task runs. A map task pushes its buckets
// to every partition owner, so an owner that has not seen the begin
// frame yet would reject the push as an unknown shuffle; the map slots'
// own per-connection begin only reaches executors that happen to draw a
// task first. Best effort: an executor that cannot be reached now is
// left to the map slots' reconnects and the barrier's recovery rounds.
func (ss *shuffleSession) openAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, addr := range ss.d.Addrs {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			_, _ = ss.ctrlConn(ctx, addr)
		}(addr)
	}
	wg.Wait()
}

// runMapSlot owns one executor connection for the duration of a map
// round, reconnecting with backoff like RunStage's slots.
func (ss *shuffleSession) runMapSlot(ctx context.Context, addr string, mr *mapRun) {
	d := ss.d
	var c *conn
	var stopWatch func() bool
	closeConn := func() {
		if c != nil {
			if stopWatch != nil {
				stopWatch()
			}
			c.close()
			ss.harvest(c)
			c = nil
		}
	}
	defer closeConn()

	fails := 0
	dialed := false
	for {
		if ctx.Err() != nil || mr.finished() {
			return
		}
		if c == nil {
			if fails > 0 {
				if !sleepCtx(ctx, d.backoff(fails)) {
					return
				}
			}
			nc, err := d.connect(ctx, addr)
			if err != nil {
				fails++
				if fails >= d.slotFailureLimit() {
					return
				}
				continue
			}
			c = nc
			stopWatch = context.AfterFunc(ctx, func() { nc.close() })
			if dialed || fails > 0 {
				ss.stats.Reconnects.Add(1)
				mReconnects.With(addr).Inc()
			}
			dialed = true
		}
		var pi int
		var ok bool
		select {
		case <-ctx.Done():
			return
		case pi, ok = <-mr.work:
			if !ok {
				return
			}
		}
		ep, ok := mr.dispatch(pi)
		if !ok {
			continue
		}
		err := ss.sendMap(c, mr, addr, pi, ep)
		if err == nil {
			fails = 0
			continue
		}
		if tf, isTF := err.(*taskFailure); isTF && tf.taskErr != nil {
			fails = 0
			if tf.retryable || tf.panicked {
				mr.abandon(pi, tf.taskErr, addr)
			} else {
				mr.fail(tf.taskErr)
				return
			}
			continue
		}
		if isTimeout(err) {
			ss.stats.DeadlineHits.Add(1)
			mDeadlineHits.Inc()
		}
		mr.abandon(pi, err, addr)
		closeConn()
		fails++
		if fails >= d.slotFailureLimit() {
			return
		}
	}
}

// sendMap runs one map-task round trip: begin and stage shipments as
// needed, then the task frame and its ack.
func (ss *shuffleSession) sendMap(c *conn, mr *mapRun, addr string, pi, epoch int) error {
	d := ss.d
	started := time.Now()
	if tt := d.taskTimeout(); tt > 0 {
		_ = c.raw.SetDeadline(time.Now().Add(tt))
		defer func() { _ = c.raw.SetDeadline(time.Time{}) }()
	}
	if err := ss.ensureBegin(c, ss.addrIdx(addr)); err != nil {
		return err
	}
	if ss.fp != 0 && !c.sentStages[ss.fp] {
		msg := stageMsg{Fingerprint: ss.fp, Schema: ss.rel.Schema, Ops: ss.opsWire}
		for _, tbl := range ss.tables {
			if !c.sentTables[tbl.Hash] {
				msg.Tables = append(msg.Tables, tbl)
			}
		}
		if err := c.enc.Encode(frameHdr{Kind: frameStage}); err != nil {
			return &taskFailure{ioErr: err}
		}
		if err := c.enc.Encode(msg); err != nil {
			return &taskFailure{ioErr: err}
		}
		c.sentStages[ss.fp] = true
		for _, tbl := range msg.Tables {
			c.sentTables[tbl.Hash] = true
		}
		ss.stats.StagesShipped.Add(1)
		mStagesShipped.Inc()
	}
	data, err := ss.encodedPartition(pi)
	if err != nil {
		return &taskFailure{taskErr: fmt.Errorf("cluster: shuffle map %d: encode partition: %w", pi, err)}
	}
	task := shuffleMapMsg{ID: uint64(pi), Epoch: uint64(epoch), Shuffle: ss.id, Stage: ss.fp, Data: data}
	if err := c.enc.Encode(frameHdr{Kind: frameShuffleMap}); err != nil {
		return &taskFailure{ioErr: err}
	}
	if err := c.enc.Encode(task); err != nil {
		return &taskFailure{ioErr: err}
	}
	var ack shuffleMapAck
	if err := c.dec.Decode(&ack); err != nil {
		return &taskFailure{ioErr: err}
	}
	if ack.Err != "" {
		return &taskFailure{
			taskErr:   fmt.Errorf("cluster: shuffle map %d: %s", pi, ack.Err),
			retryable: ack.Retryable,
			panicked:  ack.Panicked,
		}
	}
	if ack.ID != uint64(pi) || ack.Epoch != uint64(epoch) {
		return &taskFailure{ioErr: fmt.Errorf("cluster: shuffle map id/epoch mismatch: sent %d/%d got %d/%d", pi, epoch, ack.ID, ack.Epoch)}
	}
	mr.commit(pi, &ack)
	engine.ObserveTask("cluster", time.Since(started))
	return nil
}

// ctrlConn returns (dialing on demand) the session's control
// connection to addr, with the shuffle opened on it.
func (ss *shuffleSession) ctrlConn(ctx context.Context, addr string) (*conn, error) {
	ss.ctrlMu.Lock()
	c := ss.ctrl[addr]
	ss.ctrlMu.Unlock()
	if c != nil {
		return c, nil
	}
	nc, err := ss.d.connect(ctx, addr)
	if err != nil {
		return nil, err
	}
	if tt := ss.d.taskTimeout(); tt > 0 {
		_ = nc.raw.SetDeadline(time.Now().Add(tt))
	}
	err = ss.ensureBegin(nc, ss.addrIdx(addr))
	_ = nc.raw.SetDeadline(time.Time{})
	if err != nil {
		nc.close()
		ss.harvest(nc)
		return nil, err
	}
	ss.ctrlMu.Lock()
	if ss.ctrl[addr] == nil {
		ss.ctrl[addr] = nc
		ss.ctrlMu.Unlock()
		return nc, nil
	}
	// Lost a benign race; keep the existing connection.
	c = ss.ctrl[addr]
	ss.ctrlMu.Unlock()
	nc.close()
	ss.harvest(nc)
	return c, nil
}

// dropCtrl closes a control connection after a transport failure.
func (ss *shuffleSession) dropCtrl(addr string) {
	ss.ctrlMu.Lock()
	c := ss.ctrl[addr]
	delete(ss.ctrl, addr)
	ss.ctrlMu.Unlock()
	if c != nil {
		c.close()
		ss.harvest(c)
	}
}

// withCtrl runs one control round trip against addr, redialing and
// retrying on failures. Deterministic failures surface immediately;
// retryable executor-side failures are bounded by the task retry
// budget; dial/transport failures get the same patience a stage slot
// gets (SlotFailureLimit consecutive attempts with capped backoff), so
// an executor that hard-dies and rebinds its port within a few seconds
// rejoins the control plane just like it rejoins the task plane.
func (ss *shuffleSession) withCtrl(ctx context.Context, addr string, f func(c *conn) error) error {
	var lastErr error
	taskFails, transportFails := 0, 0
	for attempt := 0; ; attempt++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if attempt > 0 {
			ss.stats.Reconnects.Add(1)
			mReconnects.With(addr).Inc()
			if !sleepCtx(ctx, ss.d.backoff(attempt)) {
				return ctx.Err()
			}
		}
		c, err := ss.ctrlConn(ctx, addr)
		if err == nil {
			if tt := ss.d.taskTimeout(); tt > 0 {
				_ = c.raw.SetDeadline(time.Now().Add(tt))
			}
			err = f(c)
			_ = c.raw.SetDeadline(time.Time{})
			if err == nil {
				return nil
			}
		}
		if tf, isTF := err.(*taskFailure); isTF && tf.taskErr != nil {
			if !tf.retryable {
				return tf.taskErr
			}
			// Retryable executor-side failure: the connection is fine,
			// but give the executor a beat (and the driver a chance to
			// recover lost state) before the next attempt.
			// Keep the retryable marker: reduceAll distinguishes "executor
			// lost state, re-materialize and try again" (retryable) from
			// deterministic failures by it.
			lastErr = engine.Retryable(tf.taskErr)
			if taskFails++; taskFails > ss.d.retries() {
				break
			}
			continue
		}
		lastErr = err
		ss.dropCtrl(addr)
		if transportFails++; transportFails >= ss.d.slotFailureLimit() {
			break
		}
	}
	return fmt.Errorf("cluster: shuffle control on %s: %w", addr, lastErr)
}

// barrier asks every executor which map sources its owned partitions
// still miss; the union (as map task indexes) is what the driver must
// re-run. Wall time spent here is the stage's barrier wait.
func (ss *shuffleSession) barrier(ctx context.Context) ([]int, error) {
	start := time.Now()
	defer func() {
		ns := int64(time.Since(start))
		ss.stats.ShuffleBarrierNs.Add(ns)
		mShuffleBarrierWait.Add(ns)
	}()
	missSet := map[int]bool{}
	for _, addr := range ss.d.Addrs {
		var ack shuffleBarrierAck
		err := ss.withCtrl(ctx, addr, func(c *conn) error {
			if err := c.enc.Encode(frameHdr{Kind: frameShuffleBarrier}); err != nil {
				return &taskFailure{ioErr: err}
			}
			if err := c.enc.Encode(&shuffleBarrierMsg{Shuffle: ss.id, Sources: ss.sources}); err != nil {
				return &taskFailure{ioErr: err}
			}
			ack = shuffleBarrierAck{}
			if err := c.dec.Decode(&ack); err != nil {
				return &taskFailure{ioErr: err}
			}
			if ack.Err != "" {
				return &taskFailure{taskErr: fmt.Errorf("cluster: shuffle barrier on %s: %s", addr, ack.Err), retryable: true}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		for _, src := range ack.Missing {
			missSet[int(src)] = true
		}
	}
	missing := make([]int, 0, len(missSet))
	for pi := range missSet {
		missing = append(missing, pi)
	}
	sort.Ints(missing)
	return missing, nil
}

// ensureMaterialized runs map tasks (initial, or nil to skip straight
// to the barrier) and then barrier rounds until every (partition,
// source) pair is committed, re-enqueueing lost map outputs. This loop
// is what makes a shuffle survive an executor killed mid-stream: its
// partitions' missing sources are detected and re-pushed by re-run map
// tasks, bounded by the retry budget.
func (ss *shuffleSession) ensureMaterialized(ctx context.Context, initial []int) error {
	tasks := initial
	for round := 0; ; round++ {
		if len(tasks) > 0 {
			if err := ss.runMaps(ctx, tasks); err != nil {
				return err
			}
		}
		missing, err := ss.barrier(ctx)
		if err != nil {
			return err
		}
		if len(missing) == 0 {
			return nil
		}
		if round >= ss.d.retries() {
			return fmt.Errorf("cluster: shuffle %#x: %d map output(s) still missing after %d recovery round(s)",
				ss.id, len(missing), round)
		}
		tasks = missing
	}
}

// allTasks lists every map task index.
func (ss *shuffleSession) allTasks() []int {
	tasks := make([]int, len(ss.rel.Partitions))
	for i := range tasks {
		tasks[i] = i
	}
	return tasks
}

// reducePass runs the given reduce on every not-yet-done partition,
// partition-owner connections in parallel, partitions per owner in
// sequence. outSchema is what result payloads decode against.
func (ss *shuffleSession) reducePass(ctx context.Context, makeMsg func(part int) *shuffleReduceMsg, outSchema relation.Schema, outParts [][]relation.Row, doneParts []bool) error {
	byOwner := map[string][]int{}
	for p := 0; p < ss.parts; p++ {
		if doneParts[p] {
			continue
		}
		addr := ss.d.Addrs[p%len(ss.d.Addrs)]
		byOwner[addr] = append(byOwner[addr], p)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, len(byOwner))
	for addr, parts := range byOwner {
		wg.Add(1)
		go func(addr string, parts []int) {
			defer wg.Done()
			for _, p := range parts {
				if ctx.Err() != nil {
					errCh <- ctx.Err()
					return
				}
				var ack shuffleReduceAck
				taskStart := time.Now()
				err := ss.withCtrl(ctx, addr, func(c *conn) error {
					if err := c.enc.Encode(frameHdr{Kind: frameShuffleReduce}); err != nil {
						return &taskFailure{ioErr: err}
					}
					if err := c.enc.Encode(makeMsg(p)); err != nil {
						return &taskFailure{ioErr: err}
					}
					ack = shuffleReduceAck{}
					if err := c.dec.Decode(&ack); err != nil {
						return &taskFailure{ioErr: err}
					}
					if ack.Err != "" {
						return &taskFailure{
							taskErr:   fmt.Errorf("cluster: shuffle reduce partition %d on %s: %s", p, addr, ack.Err),
							retryable: ack.Retryable,
							panicked:  ack.Panicked,
						}
					}
					return nil
				})
				if err != nil {
					errCh <- err
					return
				}
				t0 := time.Now()
				rows, err := colcodec.Decode(outSchema, ack.Data)
				if err != nil {
					errCh <- engine.Retryable(fmt.Errorf("cluster: shuffle reduce partition %d: decode: %w", p, err))
					return
				}
				ss.stats.DecodeNs.Add(int64(time.Since(t0)))
				outParts[p] = rows
				doneParts[p] = true
				ss.stats.Tasks.Add(1)
				engine.ObserveTask("cluster", time.Since(taskStart))
			}
		}(addr, parts)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			return err
		}
	}
	return nil
}

// reduceAll drives reducePass with recovery: a retryable failure (an
// executor restarted after the barrier and lost committed runs)
// triggers a re-materialization round on every involved session before
// the next pass.
func reduceAll(ctx context.Context, sessions []*shuffleSession, makeMsg func(part int) *shuffleReduceMsg, outSchema relation.Schema) ([][]relation.Row, error) {
	ss := sessions[0]
	outParts := make([][]relation.Row, ss.parts)
	doneParts := make([]bool, ss.parts)
	for attempt := 0; ; attempt++ {
		err := ss.reducePass(ctx, makeMsg, outSchema, outParts, doneParts)
		if err == nil {
			return outParts, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if !engine.IsRetryable(err) || attempt >= ss.d.retries() {
			return nil, err
		}
		for _, s := range sessions {
			if rerr := s.ensureMaterialized(ctx, nil); rerr != nil {
				return nil, rerr
			}
		}
	}
}

// free releases executor-side state: best-effort shuffleFree frames on
// the control connections, which are then closed and their bytes
// harvested. Executors also free everything on shutdown, so a lost
// free frame leaks nothing durable.
func (ss *shuffleSession) free() {
	ss.ctrlMu.Lock()
	ctrl := ss.ctrl
	ss.ctrl = map[string]*conn{}
	ss.ctrlMu.Unlock()
	for _, c := range ctrl {
		_ = c.raw.SetDeadline(time.Now().Add(2 * time.Second))
		if err := c.enc.Encode(frameHdr{Kind: frameShuffleFree}); err == nil {
			if err := c.enc.Encode(&shuffleFreeMsg{Shuffles: []uint64{ss.id}}); err == nil {
				var ack shuffleFreeAck
				_ = c.dec.Decode(&ack)
			}
		}
		c.close()
		ss.harvest(c)
	}
}

// ShuffleMaterialize implements engine.ShuffleExecutor: run ops over
// rel, hash-partition the result on keys into parts partitions spread
// across the executors, and fetch them back. Partition p of the result
// is bitwise rel.PartitionByKey(parts, keys...) partition p (after
// ops), regardless of executor count, retries or push interleaving —
// committed runs concatenate in map-source order.
func (d *Driver) ShuffleMaterialize(ctx context.Context, rel *relation.Relation, ops []engine.OpDesc, keys []string, parts int) (*relation.Relation, engine.Stats, error) {
	start := time.Now()
	stats := engine.NewStatsCollector()
	d.live.Store(stats)
	ss, err := d.newShuffleSession(rel, ops, keys, parts, stats)
	if err != nil {
		return nil, engine.Stats{}, err
	}
	defer ss.free()
	if err := ss.ensureMaterialized(ctx, ss.allTasks()); err != nil {
		return nil, engine.Stats{}, err
	}
	makeMsg := func(p int) *shuffleReduceMsg {
		return &shuffleReduceMsg{Shuffle: ss.id, Part: p, Kind: reduceCollect, Sources: ss.sources, Compress: d.Compress}
	}
	outParts, err := reduceAll(ctx, []*shuffleSession{ss}, makeMsg, ss.schema)
	if err != nil {
		return nil, engine.Stats{}, err
	}
	out := &relation.Relation{Schema: ss.schema, Partitions: outParts}
	st := ss.finishStats(stats, start, rel.NumRows(), out.NumRows())
	return out, st, nil
}

// finishStats assembles the session's engine.Stats. The control
// connections are still open (free() runs afterwards), so their byte
// counters — which include every reduce result payload — are folded in
// here first.
func (ss *shuffleSession) finishStats(stats *engine.StatsCollector, start time.Time, rowsIn, rowsOut int) engine.Stats {
	ss.harvestCtrl()
	stats.RowsIn.Store(int64(rowsIn))
	stats.RowsOut.Store(int64(rowsOut))
	stats.Partitions.Store(int64(ss.parts))
	stats.WallNs.Store(int64(time.Since(start)))
	stats.ShufflePartitions.Add(int64(ss.parts))
	st := stats.Snapshot()
	engine.ObserveStage("cluster", st)
	return st
}

// ShuffleJoin implements engine.ShuffleExecutor: both sides are
// repartitioned on their join keys into the same fan-out, then each
// partition is joined locally on its owner with the engine's
// broadcast-join kernel (right side as build table) — the shuffle-hash
// join plan. Output partition p is bitwise what the broadcast plan
// would produce over left partition p of the repartitioned left side.
func (d *Driver) ShuffleJoin(ctx context.Context, left, right *relation.Relation, leftKeys, rightKeys []string, parts int) (*relation.Relation, engine.Stats, error) {
	start := time.Now()
	if len(leftKeys) == 0 || len(leftKeys) != len(rightKeys) {
		return nil, engine.Stats{}, fmt.Errorf("cluster: shuffle join keys mismatch: %v vs %v", leftKeys, rightKeys)
	}
	// The per-partition reduce runs the broadcast-join kernel, so the
	// output schema is the kernel's: validated driver-side before any
	// bytes move.
	joinSchemaOp := engine.OpDesc{Kind: engine.OpBroadcastJoin, Join: &engine.JoinSpec{
		Schema: right.Schema, LeftKeys: leftKeys, RightKeys: rightKeys,
	}}
	outSchema, err := engine.OutputSchema(left.Schema, []engine.OpDesc{joinSchemaOp})
	if err != nil {
		return nil, engine.Stats{}, err
	}
	stats := engine.NewStatsCollector()
	d.live.Store(stats)
	if parts < 1 {
		parts = d.DefaultShuffleParts()
	}
	ssL, err := d.newShuffleSession(left, nil, leftKeys, parts, stats)
	if err != nil {
		return nil, engine.Stats{}, err
	}
	defer ssL.free()
	ssR, err := d.newShuffleSession(right, nil, rightKeys, parts, stats)
	if err != nil {
		return nil, engine.Stats{}, err
	}
	defer ssR.free()
	if err := ssL.ensureMaterialized(ctx, ssL.allTasks()); err != nil {
		return nil, engine.Stats{}, err
	}
	if err := ssR.ensureMaterialized(ctx, ssR.allTasks()); err != nil {
		return nil, engine.Stats{}, err
	}
	makeMsg := func(p int) *shuffleReduceMsg {
		return &shuffleReduceMsg{
			Shuffle: ssL.id, Shuffle2: ssR.id, Part: p, Kind: reduceJoin,
			Sources: ssL.sources, Sources2: ssR.sources,
			LeftKeys: leftKeys, RightKeys: rightKeys, Compress: d.Compress,
		}
	}
	outParts, err := reduceAll(ctx, []*shuffleSession{ssL, ssR}, makeMsg, outSchema)
	if err != nil {
		return nil, engine.Stats{}, err
	}
	out := &relation.Relation{Schema: outSchema, Partitions: outParts}
	ssR.harvestCtrl()
	st := ssL.finishStats(stats, start, left.NumRows()+right.NumRows(), out.NumRows())
	return out, st, nil
}

// ShuffleAggregate implements engine.ShuffleExecutor: the shuffle
// aggregation plan. Map tasks compute per-partition partial aggregates
// (the map-side combine), the partials repartition on the group key,
// each owner merges its partitions' partials into finals, and the
// driver restores global key order with a streaming merge — replacing
// the PartialAgg→driver→MergePartials funnel with O(groups) driver
// traffic. Output is bitwise engine.AggregateDistributed's (identical
// per-group accumulation order), in one partition in global key order.
func (d *Driver) ShuffleAggregate(ctx context.Context, rel *relation.Relation, groupBy []string, aggs []engine.AggSpec, parts int) (*relation.Relation, engine.Stats, error) {
	start := time.Now()
	stats := engine.NewStatsCollector()
	d.live.Store(stats)
	mapOps := []engine.OpDesc{engine.PartialAgg(groupBy, aggs)}
	ss, err := d.newShuffleSession(rel, mapOps, groupBy, parts, stats)
	if err != nil {
		return nil, engine.Stats{}, err
	}
	defer ss.free()
	// The finals' schema: what MergePartials produces from the partial
	// schema — computed driver-side on an empty relation.
	emptyPartials := &relation.Relation{Schema: ss.schema}
	finalEmpty, err := engine.MergePartials(emptyPartials, groupBy, aggs)
	if err != nil {
		return nil, engine.Stats{}, err
	}
	finalSchema := finalEmpty.Schema
	if err := ss.ensureMaterialized(ctx, ss.allTasks()); err != nil {
		return nil, engine.Stats{}, err
	}
	makeMsg := func(p int) *shuffleReduceMsg {
		return &shuffleReduceMsg{
			Shuffle: ss.id, Part: p, Kind: reduceFinalAgg, Sources: ss.sources,
			GroupBy: groupBy, Aggs: aggs, Compress: d.Compress,
		}
	}
	outParts, err := reduceAll(ctx, []*shuffleSession{ss}, makeMsg, finalSchema)
	if err != nil {
		return nil, engine.Stats{}, err
	}
	// Hash partitions are key-disjoint and each owner's finals are
	// key-ordered; the n-way merge restores the global order Aggregate
	// and MergePartials produce.
	merged := engine.MergeByGroupKey(outParts, len(groupBy))
	out := &relation.Relation{Schema: finalSchema, Partitions: [][]relation.Row{merged}}
	st := ss.finishStats(stats, start, rel.NumRows(), out.NumRows())
	return out, st, nil
}

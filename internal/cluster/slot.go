package cluster

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"ivnt/internal/colcodec"
	"ivnt/internal/engine"
	"ivnt/internal/relation"
	"ivnt/internal/telemetry"
)

// The task-slot core: one work queue (taskQueue), one slot loop
// (runSlot) and one connection retry policy (link), driven by every
// kind of driver round trip — stage tasks (sendTask), shuffle map tasks
// (sendMap) and shuffle control frames (link.roundTrip).

// inflightInfo tracks the live dispatches of one task: how many copies
// are out (original + speculative) and when the oldest was launched.
type inflightInfo struct {
	n     int
	start time.Time
}

// taskQueue is the retrying work queue of one round of tasks: a stage
// (RunStage, RunSegmentStage) or a shuffle map round. Tasks are
// partition indexes flowing through work; pending counts tasks not yet
// committed. Slots survive transport failures by reconnecting; the
// round fails only when a task exhausts its retry or panic budget, the
// context is cancelled, or every slot has retired with work
// outstanding.
type taskQueue struct {
	noun    string // what a task is called in diagnostics
	retries int

	// stats is the single accumulation point for the round's counters:
	// slots and the speculation monitor write through its atomics, and
	// Driver.LiveStats snapshots it mid-flight. No counter lives behind
	// mu.
	stats *engine.StatsCollector

	// stageSpan/spans carry the round's trace; nil when tracing is off
	// (all span operations on nil are no-ops). tasks mirrors scheduling
	// state for /tasks; nil-safe the same way. Shuffle map rounds leave
	// all three nil.
	stageSpan *telemetry.Span
	spans     []*telemetry.Span
	tasks     *telemetry.TaskTable

	mu        sync.Mutex
	work      chan int
	closed    bool
	pending   int
	done      []bool
	attempts  []int
	epoch     []int
	specs     []int
	panics    []int
	inflight  map[int]inflightInfo
	durations []time.Duration
	firstErr  error
	cancel    context.CancelFunc
}

// newTaskQueue builds the queue for a round over n partitions of which
// only run are dispatched; the others count as already done. The work
// channel capacity covers every task being requeued up to the retry
// budget plus every speculative launch, so no send ever blocks.
func (d *Driver) newTaskQueue(noun string, n int, run []int, stats *engine.StatsCollector) *taskQueue {
	q := &taskQueue{
		noun:     noun,
		retries:  d.retries(),
		stats:    stats,
		work:     make(chan int, n*(d.retries()+d.maxSpeculation()+2)),
		pending:  len(run),
		done:     make([]bool, n),
		attempts: make([]int, n),
		epoch:    make([]int, n),
		specs:    make([]int, n),
		panics:   make([]int, n),
		inflight: make(map[int]inflightInfo),
	}
	for i := range q.done {
		q.done[i] = true
	}
	for _, pi := range run {
		q.done[pi] = false
		q.work <- pi
	}
	if len(run) == 0 {
		q.closeWorkLocked()
	}
	return q
}

// spanFor returns the trace span of task pi, or nil when tracing is
// off.
func (q *taskQueue) spanFor(pi int) *telemetry.Span {
	if q.spans == nil {
		return nil
	}
	return q.spans[pi]
}

// closeWorkLocked closes the work channel exactly once; callers hold
// q.mu.
func (q *taskQueue) closeWorkLocked() {
	if !q.closed {
		q.closed = true
		close(q.work)
	}
}

func (q *taskQueue) finished() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed
}

func (q *taskQueue) fail(err error) {
	q.mu.Lock()
	if q.firstErr == nil {
		q.firstErr = err
	}
	q.closeWorkLocked()
	q.mu.Unlock()
	q.cancel()
}

func (q *taskQueue) noteDeadline(pi int) {
	q.stats.DeadlineHits.Add(1)
	mDeadlineHits.Inc()
	q.spanFor(pi).Event("deadline_hit")
}

// notePanic counts a contained executor panic against task pi and
// returns the new total; the slot quarantines the task once it reaches
// the driver's panic retry limit.
func (q *taskQueue) notePanic(pi int) int {
	q.mu.Lock()
	q.panics[pi]++
	n := q.panics[pi]
	q.mu.Unlock()
	mTaskPanics.Inc()
	q.spanFor(pi).Event("task_panic", telemetry.A("count", n))
	return n
}

// noteAdmissionDeferral records one pressure-induced dispatch pause.
func (q *taskQueue) noteAdmissionDeferral(addr string) {
	q.stats.AdmissionDeferrals.Add(1)
	mAdmissionDeferrals.Inc()
	q.stageSpan.Event("admission_deferral", telemetry.A("addr", addr))
}

// dispatch registers one launch of task pi and returns its epoch. A
// task that already completed (e.g. a stale speculative queue entry)
// is not dispatched again.
func (q *taskQueue) dispatch(pi int) (epoch int, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || q.done[pi] {
		return 0, false
	}
	q.epoch[pi]++
	fl := q.inflight[pi]
	if fl.n == 0 {
		fl.start = time.Now()
	}
	fl.n++
	q.inflight[pi] = fl
	mInflight.Add(1)
	return q.epoch[pi], true
}

// commit records a completed task. The first result for a partition
// wins: keep runs, under q.mu, only for it; duplicates from
// speculative copies are discarded.
func (q *taskQueue) commit(pi int, keep func()) {
	q.mu.Lock()
	started := q.dropInflightLocked(pi)
	if q.done[pi] || q.closed {
		q.mu.Unlock()
		return
	}
	q.done[pi] = true
	keep()
	if !started.IsZero() {
		q.durations = append(q.durations, time.Since(started))
	}
	q.pending--
	finished := q.pending == 0
	if finished {
		q.closeWorkLocked()
	}
	q.mu.Unlock()
	if !started.IsZero() {
		engine.ObserveTask("cluster", time.Since(started))
	}
	sp := q.spanFor(pi)
	sp.Event("merged")
	sp.End()
	q.tasks.Done(pi)
	if finished {
		// Unblock slots whose connections are mid-read (e.g. a stalled
		// executor that lost the speculation race).
		q.cancel()
	}
}

func (q *taskQueue) dropInflightLocked(pi int) time.Time {
	fl, ok := q.inflight[pi]
	if !ok {
		return time.Time{}
	}
	start := fl.start
	fl.n--
	if fl.n <= 0 {
		delete(q.inflight, pi)
	} else {
		q.inflight[pi] = fl
	}
	mInflight.Add(-1)
	return start
}

// abandon records a failed launch of task pi and requeues the task
// unless another copy is still in flight or the retry budget is
// exhausted (which fails the round). It returns the task's failed
// attempts so far, 0 when the failure was moot (the task had already
// committed or the round had ended).
func (q *taskQueue) abandon(pi int, cause error, addr string) int {
	q.mu.Lock()
	q.dropInflightLocked(pi)
	if q.done[pi] || q.closed {
		q.mu.Unlock()
		return 0
	}
	q.attempts[pi]++
	q.stats.Retries.Add(1)
	attempts := q.attempts[pi]
	tooMany := attempts > q.retries
	if !tooMany {
		if fl, live := q.inflight[pi]; !live || fl.n <= 0 {
			q.work <- pi
		}
	}
	q.mu.Unlock()
	mRetries.Inc()
	q.spanFor(pi).Event("task_retry",
		telemetry.A("attempt", attempts), telemetry.A("addr", addr), telemetry.A("cause", cause.Error()))
	q.tasks.Retrying(pi)
	if tooMany {
		q.fail(fmt.Errorf("cluster: %s %d failed %d times (last on %s): %w", q.noun, pi, attempts, addr, cause))
	}
	return attempts
}

// speculate is the straggler monitor: any task whose oldest in-flight
// copy has been running longer than factor× the median completed-task
// duration (floored at min) is re-enqueued, up to maxPer copies.
func (q *taskQueue) speculate(ctx context.Context, factor float64, min, interval time.Duration, maxPer int) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		q.mu.Lock()
		if q.closed {
			q.mu.Unlock()
			return
		}
		med := medianDuration(q.durations)
		if med <= 0 {
			q.mu.Unlock()
			continue
		}
		thr := time.Duration(factor * float64(med))
		if thr < min {
			thr = min
		}
		now := time.Now()
		var launched []int
		for pi, fl := range q.inflight {
			if fl.n == 1 && !q.done[pi] && q.specs[pi] < maxPer && now.Sub(fl.start) > thr {
				q.specs[pi]++
				q.stats.Speculative.Add(1)
				q.work <- pi
				launched = append(launched, pi)
			}
		}
		q.mu.Unlock()
		for _, pi := range launched {
			mSpeculative.Inc()
			q.stageSpan.Event("speculation", telemetry.A("task", pi))
			q.tasks.Speculative(pi)
		}
	}
}

func medianDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	c := make([]time.Duration, len(ds))
	copy(c, ds)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return c[len(c)/2]
}

// roundTrip is one kind of task's exchange on a slot connection to
// addr: ship what the connection lacks, send task pi at epoch, read the
// reply and commit it to the queue. pressured reports executor memory
// pressure at or above the admission threshold (the slot then defers
// its next dispatch).
type roundTrip func(c *conn, addr string, pi, epoch int) (pressured bool, err error)

// runQueue dispatches the queue's tasks over SlotsPerExecutor slots per
// executor and blocks until every task committed or the round failed.
// speculate starts the straggler monitor.
func (d *Driver) runQueue(ctx context.Context, q *taskQueue, send roundTrip, speculate bool) error {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	q.cancel = cancel
	if f := d.speculationFactor(); speculate && f > 0 && !q.finished() {
		go q.speculate(cctx, f, d.speculationMin(), d.speculationInterval(), d.maxSpeculation())
	}
	var wg sync.WaitGroup
	for _, addr := range d.Addrs {
		for s := 0; s < d.slots(); s++ {
			wg.Add(1)
			go func(addr string) {
				defer wg.Done()
				d.runSlot(cctx, d.newLink(addr, q.stats, q.stageSpan, true), q, send)
			}(addr)
		}
	}
	wg.Wait()

	q.mu.Lock()
	firstErr, pending := q.firstErr, q.pending
	q.mu.Unlock()
	// A user cancellation must surface as such, not as a transport
	// failure or an "undeliverable" round.
	if ctx.Err() != nil {
		return ctx.Err()
	}
	if firstErr != nil {
		return firstErr
	}
	if pending > 0 {
		return fmt.Errorf("cluster: %d %s(s) undeliverable: no executor reachable", pending, q.noun)
	}
	return nil
}

// runSlot owns one executor connection, l, for a round and is the only
// loop that does. Transport failures do not retire the slot: the
// in-flight task is requeued and the slot reconnects with capped
// exponential backoff, so executors that restart mid-round rejoin. A
// retryable task failure is requeued too, and the slot waits the same
// backoff for the task's attempt count before drawing more work. Only
// SlotFailureLimit consecutive failures retire the slot, bounding the
// damage of a persistently dead or flaky executor (it must not starve
// the retry budget of healthy ones).
func (d *Driver) runSlot(ctx context.Context, l *link, q *taskQueue, send roundTrip) {
	addr := l.addr
	defer l.release()
	for {
		if ctx.Err() != nil || q.finished() || l.retired() {
			return
		}
		if l.c == nil {
			if l.acquire(ctx) != nil {
				continue
			}
			// Close the connection when the round ends so a slot blocked
			// in a read (stalled executor, round already complete) wakes.
			// A persistent driver's watcher leaves idle connections open:
			// they are not blocking anything and release pools them.
			nc := l.c
			l.stopWatch = context.AfterFunc(ctx, func() {
				if !d.Persistent || nc.busy.Load() {
					nc.close()
				}
			})
		}
		var pi int
		var ok bool
		select {
		case <-ctx.Done():
			return
		case pi, ok = <-q.work:
			if !ok {
				return
			}
		}
		ep, ok := q.dispatch(pi)
		if !ok {
			continue
		}
		q.spanFor(pi).Event("shipped", telemetry.A("addr", addr), telemetry.A("epoch", ep))
		q.tasks.Running(pi, addr, ep)
		c := l.c
		c.busy.Store(true)
		if ctx.Err() != nil {
			// The round-end watcher may have observed the connection
			// idle a moment ago and left it open; nobody would unblock
			// a read started now, so bail out. busy stays set so
			// release closes instead of pooling (the watcher may have
			// closed the connection concurrently).
			return
		}
		clearDeadline := d.deadline(c)
		pressured, err := send(c, addr, pi, ep)
		clearDeadline()
		c.busy.Store(false)
		if err == nil {
			l.fails = 0
			if pressured {
				// Admission control: the executor reported memory
				// pressure in the result frame, so this slot backs off
				// before taking more work instead of piling on.
				q.noteAdmissionDeferral(addr)
				if !sleepCtx(ctx, d.admissionPause()) {
					return
				}
			}
			continue
		}
		if tf, isTF := err.(*taskFailure); isTF && tf.taskErr != nil {
			// The transport round trip succeeded; the task itself failed.
			// The connection stays healthy either way.
			l.fails = 0
			switch {
			case tf.panicked:
				// A contained executor panic is worth a bounded number
				// of retries (it may be machine-local), but a task that
				// panics everywhere is poisoned: quarantine it with a
				// diagnostic instead of retrying forever.
				if n := q.notePanic(pi); n >= d.panicRetryLimit() {
					q.fail(fmt.Errorf("cluster: %s %d poisoned: %d contained panic(s), last on %s: %w",
						q.noun, pi, n, addr, tf.taskErr))
					return
				}
				q.abandon(pi, tf.taskErr, addr)
			case tf.retryable:
				// Environmental task failure (e.g. disk full during
				// spill): requeue and back off like a transport failure.
				if n := q.abandon(pi, tf.taskErr, addr); n > 0 && !l.wait(ctx, d.backoff(n)) {
					return
				}
			default:
				q.fail(tf.taskErr)
				return
			}
			continue
		}
		if isTimeout(err) {
			q.noteDeadline(pi)
		}
		q.abandon(pi, err, addr)
		l.broken()
	}
}

// deadline bounds the next round trip on c by the task timeout (no
// bound when disabled); the returned func clears it.
func (d *Driver) deadline(c *conn) (clear func()) {
	if tt := d.taskTimeout(); tt > 0 {
		_ = c.raw.SetDeadline(time.Now().Add(tt))
	}
	return func() { _ = c.raw.SetDeadline(time.Time{}) }
}

// link is the driver's one connection retry policy: every task slot
// and every shuffle control connection holds one. It hands out a
// connection — pooled, or dialed after the capped backoff its
// consecutive failures call for —, counts a reconnect only when it
// actually redials after an earlier connection or failure, and retires
// after SlotFailureLimit consecutive dial/transport failures. A
// completed round trip, even one the executor reported as failed,
// resets the count: the connection itself is healthy.
type link struct {
	d      *Driver
	addr   string
	stats  *engine.StatsCollector
	span   *telemetry.Span // receives reconnect events; nil-safe
	pooled bool            // check out of and stash into the Persistent pool
	dial   func(ctx context.Context, addr string) (*conn, error)
	wait   func(ctx context.Context, dur time.Duration) bool

	c         *conn
	stopWatch func() bool // the slot's round-end watcher on c, if any
	fails     int         // consecutive dial/transport failures
	dialed    bool        // ever dialed successfully
}

func (d *Driver) newLink(addr string, stats *engine.StatsCollector, span *telemetry.Span, pooled bool) *link {
	return &link{d: d, addr: addr, stats: stats, span: span, pooled: pooled, dial: d.connect, wait: sleepCtx}
}

func (l *link) retired() bool { return l.fails >= l.d.slotFailureLimit() }

// acquire makes sure the link holds a connection: a pooled one while
// the link is healthy, else a fresh dial after backoff. A failed dial
// counts against SlotFailureLimit and is returned; callers loop.
func (l *link) acquire(ctx context.Context) error {
	if l.c != nil {
		return nil
	}
	if l.fails == 0 && l.pooled {
		if l.c = l.d.checkoutConn(l.addr); l.c != nil {
			return nil
		}
	}
	if l.fails > 0 && !l.wait(ctx, l.d.backoff(l.fails)) {
		return ctx.Err()
	}
	nc, err := l.dial(ctx, l.addr)
	if err != nil {
		l.fails++
		return err
	}
	if l.dialed || l.fails > 0 {
		l.stats.Reconnects.Add(1)
		mReconnects.With(l.addr).Inc()
		l.span.Event("reconnect", telemetry.A("addr", l.addr))
	}
	l.dialed = true
	l.c = nc
	return nil
}

// harvest folds the connection's byte counters (bytes since the last
// harvest) into the stats.
func (l *link) harvest() {
	if l.c == nil {
		return
	}
	w, r := l.c.takeCounts()
	l.stats.BytesSent.Add(w)
	l.stats.BytesRecv.Add(r)
	mBytesSent.Add(w)
	mBytesRecv.Add(r)
}

// drop hard-closes the connection.
func (l *link) drop() {
	if l.c == nil {
		return
	}
	if l.stopWatch != nil {
		l.stopWatch()
		l.stopWatch = nil
	}
	l.c.close()
	l.harvest()
	l.c = nil
}

// broken drops the connection after a transport failure and counts the
// failure.
func (l *link) broken() {
	l.drop()
	l.fails++
}

// release runs at slot exit: a healthy idle connection goes back to the
// persistent pool (watcher stopped in time, or it ran but skipped the
// close because the connection was idle); anything else closes.
func (l *link) release() {
	if l.c == nil {
		return
	}
	stopped := l.stopWatch == nil || l.stopWatch()
	l.harvest()
	if l.pooled && (stopped || !l.c.busy.Load()) && l.d.stashConn(l.addr, l.c) {
		l.c = nil
		return
	}
	l.c.close()
	l.c = nil
}

// roundTrip runs one control exchange f on the link under the task
// deadline, with the slot loop's rules: a transport failure drops the
// connection and the next attempt redials with backoff, up to
// SlotFailureLimit consecutive failures; a retryable executor-side
// failure leaves the connection up and retries at once, up to
// MaxRetries; any other executor-side failure is returned as is. An
// exhausted retryable failure keeps its engine.Retryable marker:
// reduceAll tells "executor lost state, re-materialize and try again"
// from deterministic failures by it.
func (l *link) roundTrip(ctx context.Context, f func(c *conn) error) error {
	var lastErr error
	l.fails = 0
	for taskFails := 0; !l.retired(); {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if err := l.acquire(ctx); err != nil {
			lastErr = err
			continue
		}
		clearDeadline := l.d.deadline(l.c)
		err := f(l.c)
		clearDeadline()
		if err == nil {
			l.fails = 0
			return nil
		}
		if tf, isTF := err.(*taskFailure); isTF && tf.taskErr != nil {
			l.fails = 0
			if !tf.retryable {
				return tf.taskErr
			}
			lastErr = engine.Retryable(tf.taskErr)
			if taskFails++; taskFails > l.d.retries() {
				break
			}
			continue
		}
		lastErr = err
		l.broken()
	}
	return fmt.Errorf("cluster: shuffle control on %s: %w", l.addr, lastErr)
}

// shipment is one stage's v3 wire form, prepared once per stage: the
// content fingerprint, the input schema, the pipeline with broadcast
// rows stripped (replaced by table-hash references) and each distinct
// broadcast table columnar-encoded once. A zero fingerprint means there
// is nothing to ship (a shuffle map that runs no ops).
type shipment struct {
	fp     uint64
	schema relation.Schema
	ops    []engine.OpDesc
	tables []tableMsg
}

// ship sends the stage on c if this connection has not seen it yet —
// once per stage per connection, so a reconnected (restarted) executor
// receives it again, and broadcast tables the connection already holds
// are not re-sent even across stages.
func (sh *shipment) ship(c *conn, stats *engine.StatsCollector) error {
	if sh.fp == 0 || c.sentStages[sh.fp] {
		return nil
	}
	msg := stageMsg{Fingerprint: sh.fp, Schema: sh.schema, Ops: sh.ops}
	for _, tbl := range sh.tables {
		if !c.sentTables[tbl.Hash] {
			msg.Tables = append(msg.Tables, tbl)
		}
	}
	if err := c.exchange(frameStage, msg, nil); err != nil {
		return err
	}
	c.sentStages[sh.fp] = true
	for _, tbl := range msg.Tables {
		c.sentTables[tbl.Hash] = true
	}
	stats.StagesShipped.Add(1)
	mStagesShipped.Inc()
	return nil
}

// partEncoder caches the columnar encoding of each input partition, so
// retries, speculative copies and re-run shuffle maps reuse the bytes
// instead of re-encoding.
type partEncoder struct {
	rel   *relation.Relation
	opts  colcodec.Options
	stats *engine.StatsCollector

	mu    sync.Mutex
	parts [][]byte
}

func (d *Driver) newPartEncoder(rel *relation.Relation, stats *engine.StatsCollector) *partEncoder {
	return &partEncoder{
		rel:   rel,
		opts:  colcodec.Options{Compress: d.Compress, Level: d.CompressLevel},
		stats: stats,
		parts: make([][]byte, len(rel.Partitions)),
	}
}

// encode returns (caching) the columnar encoding of partition pi.
func (e *partEncoder) encode(pi int) ([]byte, error) {
	e.mu.Lock()
	if b := e.parts[pi]; b != nil {
		e.mu.Unlock()
		return b, nil
	}
	e.mu.Unlock()
	start := time.Now()
	b, err := colcodec.Encode(e.rel.Schema, e.rel.Partitions[pi], e.opts)
	if err != nil {
		return nil, err
	}
	e.stats.EncodeNs.Add(int64(time.Since(start)))
	e.mu.Lock()
	if e.parts[pi] == nil {
		e.parts[pi] = b
	} else {
		b = e.parts[pi] // lost a benign double-encode race
	}
	e.mu.Unlock()
	return b, nil
}

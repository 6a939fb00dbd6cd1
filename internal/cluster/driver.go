package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ivnt/internal/colcodec"
	"ivnt/internal/engine"
	"ivnt/internal/relation"
	"ivnt/internal/telemetry"
)

const (
	// maxSpeculation bounds speculative launches per task.
	maxSpeculation = 2
	// panicRetryLimit is how many contained executor panics one task
	// tolerates before the driver quarantines it as poisoned and fails
	// the stage with a diagnostic (a deterministic panic must not burn
	// the whole retry budget executor by executor).
	panicRetryLimit = 2
)

// Driver distributes engine stages across remote executors. It
// implements engine.Executor, so every pipeline in the framework runs
// unchanged either locally or on a cluster — the property the paper
// gets from targeting Spark. The driver survives every single-node
// failure mode without aborting a stage: stalled connections hit
// per-task deadlines, dropped connections are re-established with
// capped exponential backoff, and straggler tasks are speculatively
// re-executed on other executors (first result wins).
type Driver struct {
	// Addrs are executor addresses ("host:port").
	Addrs []string
	// SlotsPerExecutor is how many concurrent task connections the
	// driver opens per executor (the paper's "5 cores per executor").
	// Default 1.
	SlotsPerExecutor int
	// MaxRetries is how often a task is re-dispatched after a transport
	// failure before the stage aborts. Default 2.
	MaxRetries int
	// DialTimeout bounds connection establishment and the handshake.
	// Default 5s.
	DialTimeout time.Duration
	// TaskTimeout bounds one task round trip (send + remote compute +
	// receive) on a slot connection. A deadline hit counts in
	// Stats.DeadlineHits and requeues the task like any other transport
	// failure. 0 means the 2m default; negative disables deadlines.
	TaskTimeout time.Duration
	// ReconnectBase and ReconnectMax shape the capped exponential
	// backoff (with jitter) between reconnection attempts of a slot.
	// Defaults 50ms and 2s.
	ReconnectBase time.Duration
	ReconnectMax  time.Duration
	// SlotFailureLimit is how many consecutive dial/transport failures a
	// slot tolerates before it retires for the remainder of the stage (a
	// persistently dead executor must not spin forever, and the stage
	// must be able to report "undeliverable" when every slot is gone).
	// Any successfully completed task resets the counter. The default 8
	// gives a restarting executor a multi-second window to rejoin.
	SlotFailureLimit int
	// SpeculationFactor k: a task whose runtime exceeds k× the median
	// completed-task duration is re-dispatched speculatively; the first
	// result wins and duplicates are discarded by task epoch. 0 means
	// the default 3; negative disables speculation.
	SpeculationFactor float64
	// SpeculationMin is the floor on the straggler threshold, so
	// microsecond medians do not trigger spurious re-execution.
	// Default 100ms.
	SpeculationMin time.Duration
	// SpeculationInterval is how often the straggler monitor scans
	// in-flight tasks. Default 25ms.
	SpeculationInterval time.Duration
	// AdmissionThreshold is the executor memory pressure (used/budget,
	// reported in result frames) above which the driver defers further
	// dispatch on that slot by AdmissionPause, letting the executor
	// drain instead of piling on. 0 means the 0.85 default; negative
	// disables admission control.
	AdmissionThreshold float64
	// AdmissionPause is how long a pressured slot waits before taking
	// its next task. Default 20ms.
	AdmissionPause time.Duration
	// Compress runs columnar partition and broadcast-table payloads
	// through DEFLATE (stdlib flate) before they hit the wire. Worth it
	// for string-heavy traces crossing real networks; pure CPU overhead
	// on loopback. Executors auto-detect the flag per payload and
	// mirror it on results.
	Compress bool
	// CompressLevel selects the DEFLATE effort for driver-side payload
	// encodes when Compress is set. 0 means flate.BestSpeed — wire
	// compression is latency-bound, so the fast level is the default —
	// and any valid flate level (including flate.BestCompression for
	// bandwidth-starved links) passes through unchanged.
	CompressLevel int
	// Tracer, when set, records one span per stage plus one child span
	// per task, with lifecycle events (queued, shipped, decoded,
	// executed, merged) and fault events (task_retry, reconnect,
	// speculation, deadline_hit). Nil disables tracing; every span
	// operation on nil is a no-op.
	Tracer *telemetry.Tracer
	// Tasks, when set, mirrors per-task scheduling state into a live
	// table — what the /tasks introspection endpoint serves. Nil
	// disables it.
	Tasks *telemetry.TaskTable

	// ShufflePeers overrides the endpoint map executors use for
	// executor-to-executor shuffle pushes (protocol v4). Entry i is how
	// peers reach the executor at Addrs[i]; default is Addrs itself.
	// Chaos tests point entries at fault proxies so only peer links see
	// injected faults while driver connections stay clean.
	ShufflePeers []string
	// ShufflePushTimeout bounds one peer push round trip on the map
	// side, distributed to executors in shuffle begin frames. 0 leaves
	// the executors' own default (30s).
	ShufflePushTimeout time.Duration
	// ShuffleParts is the default shuffle fan-out when a plan does not
	// pick one. 0 means 2× the executor count (at least 2).
	ShuffleParts int

	// Persistent keeps executor connections open across stages instead
	// of dialing per stage: a slot that finishes a stage cleanly
	// returns its connection — with the stage-once sentStages and
	// sentTables caches warm — to a per-address pool the next stage
	// checks out of. This is the resident mode the query service runs
	// the driver in (many stages over one daemon lifetime); batch runs
	// keep the default dial-per-stage lifecycle. Close releases the
	// pool. A pooled connection whose executor died is detected on
	// first use and handled by the ordinary reconnect machinery.
	Persistent bool

	// live points at the stats collector of the most recent RunStage so
	// introspection can snapshot counters while a stage is running.
	live atomic.Pointer[engine.StatsCollector]

	poolMu     sync.Mutex
	pool       map[string][]*conn
	poolClosed bool
}

// checkoutConn pops a pooled connection for addr (nil when the pool is
// empty, closed, or the driver is not Persistent).
func (d *Driver) checkoutConn(addr string) *conn {
	if !d.Persistent {
		return nil
	}
	d.poolMu.Lock()
	defer d.poolMu.Unlock()
	l := d.pool[addr]
	if len(l) == 0 {
		return nil
	}
	c := l[len(l)-1]
	d.pool[addr] = l[:len(l)-1]
	return c
}

// stashConn returns a healthy connection to the pool, reporting whether
// it was kept (false: caller must close it).
func (d *Driver) stashConn(addr string, c *conn) bool {
	if !d.Persistent {
		return false
	}
	d.poolMu.Lock()
	defer d.poolMu.Unlock()
	if d.poolClosed || len(d.pool[addr]) >= d.slots() {
		return false
	}
	if d.pool == nil {
		d.pool = map[string][]*conn{}
	}
	// A pooled connection forgets the shuffles it opened, so its
	// sentShuffles cannot grow by one entry per shuffle over the pool's
	// lifetime; a later map round on it re-sends the (idempotent) begin.
	clear(c.sentShuffles)
	d.pool[addr] = append(d.pool[addr], c)
	return true
}

// Close closes every pooled connection and stops further pooling. Only
// meaningful for Persistent drivers; idempotent.
func (d *Driver) Close() {
	d.poolMu.Lock()
	conns := d.pool
	d.pool = nil
	d.poolClosed = true
	d.poolMu.Unlock()
	for _, l := range conns {
		for _, c := range l {
			c.close()
		}
	}
}

// LiveStats returns a point-in-time snapshot of the most recent
// stage's counters — safe to call concurrently with RunStage. Zero
// before the first stage starts.
func (d *Driver) LiveStats() engine.Stats {
	if c := d.live.Load(); c != nil {
		return c.Snapshot()
	}
	return engine.Stats{}
}

// Name implements engine.Executor.
func (d *Driver) Name() string {
	return fmt.Sprintf("cluster[%d executors x %d slots]", len(d.Addrs), d.slots())
}

func (d *Driver) slots() int {
	if d.SlotsPerExecutor > 0 {
		return d.SlotsPerExecutor
	}
	return 1
}

func (d *Driver) retries() int {
	if d.MaxRetries > 0 {
		return d.MaxRetries
	}
	return 2
}

func (d *Driver) dialTimeout() time.Duration {
	if d.DialTimeout > 0 {
		return d.DialTimeout
	}
	return 5 * time.Second
}

func (d *Driver) taskTimeout() time.Duration {
	switch {
	case d.TaskTimeout > 0:
		return d.TaskTimeout
	case d.TaskTimeout < 0:
		return 0
	default:
		return 2 * time.Minute
	}
}

func (d *Driver) reconnectBase() time.Duration {
	if d.ReconnectBase > 0 {
		return d.ReconnectBase
	}
	return 50 * time.Millisecond
}

func (d *Driver) reconnectMax() time.Duration {
	if d.ReconnectMax > 0 {
		return d.ReconnectMax
	}
	return 2 * time.Second
}

func (d *Driver) slotFailureLimit() int {
	if d.SlotFailureLimit > 0 {
		return d.SlotFailureLimit
	}
	return 8
}

func (d *Driver) speculationFactor() float64 {
	switch {
	case d.SpeculationFactor > 0:
		return d.SpeculationFactor
	case d.SpeculationFactor < 0:
		return 0
	default:
		return 3
	}
}

func (d *Driver) speculationMin() time.Duration {
	if d.SpeculationMin > 0 {
		return d.SpeculationMin
	}
	return 100 * time.Millisecond
}

func (d *Driver) speculationInterval() time.Duration {
	if d.SpeculationInterval > 0 {
		return d.SpeculationInterval
	}
	return 25 * time.Millisecond
}

func (d *Driver) admissionThreshold() float64 {
	switch {
	case d.AdmissionThreshold > 0:
		return d.AdmissionThreshold
	case d.AdmissionThreshold < 0:
		return 0
	default:
		return 0.85
	}
}

func (d *Driver) admissionPause() time.Duration {
	if d.AdmissionPause > 0 {
		return d.AdmissionPause
	}
	return 20 * time.Millisecond
}

// backoff returns the sleep before reconnection attempt number fails
// (1-based): capped exponential with ±50% jitter.
func (d *Driver) backoff(fails int) time.Duration {
	b := d.reconnectBase()
	max := d.reconnectMax()
	for i := 1; i < fails && b < max; i++ {
		b *= 2
	}
	if b > max {
		b = max
	}
	half := int64(b / 2)
	if half <= 0 {
		return b
	}
	return time.Duration(half + rand.Int63n(half+1))
}

// The driver schedules stages straight from segment files when the
// scan source can name them (engine.ScanStage wires the two up).
var _ engine.SegmentExecutor = (*Driver)(nil)

// stageRun is one RunStage or RunSegmentStage call: its task queue plus
// what only stages carry.
type stageRun struct {
	q     *taskQueue
	stats *engine.StatsCollector

	// ship is the v3 stage shipment, prepared once per stage; outSchema
	// is what results decode against.
	ship      shipment
	outSchema relation.Schema
	outParts  [][]relation.Row

	// in encodes the input relation's partitions (RunStage). segs, when
	// non-nil, marks a segment-scheduled stage (RunSegmentStage)
	// instead: task pi reads segs[pi] on the executor. Pruned refs are
	// committed driver-side before any slot starts, using prunedPipe —
	// the stage compiled from the ORIGINAL ops (ship.ops has broadcast
	// rows stripped and is only compilable on an executor).
	in         *partEncoder
	segs       []engine.SegmentRef
	prunedPipe *engine.StagePipeline
}

// newStageRun validates the plan on the driver and prepares the stage
// shipment once: fingerprint the stage, strip broadcast tables out of
// the pipeline (they ship separately, keyed by content hash, at most
// once per connection), and columnar-encode each distinct table a
// single time for the whole stage.
func (d *Driver) newStageRun(schema relation.Schema, ops []engine.OpDesc, nParts int) (*stageRun, error) {
	if len(d.Addrs) == 0 {
		return nil, fmt.Errorf("cluster: driver has no executor addresses")
	}
	outSchema, err := engine.OutputSchema(schema, ops)
	if err != nil {
		return nil, err
	}
	ship, err := d.stageWire(schema, ops)
	if err != nil {
		return nil, err
	}
	return &stageRun{
		stats:     engine.NewStatsCollector(),
		ship:      ship,
		outSchema: outSchema,
		outParts:  make([][]relation.Row, nParts),
	}, nil
}

// RunStage implements engine.Executor: each partition becomes one task,
// dispatched over a pool of executor connections; results reassemble in
// partition order so the stage is deterministic.
func (d *Driver) RunStage(ctx context.Context, rel *relation.Relation, ops []engine.OpDesc) (*relation.Relation, engine.Stats, error) {
	start := time.Now()
	sr, err := d.newStageRun(rel.Schema, ops, len(rel.Partitions))
	if err != nil {
		return nil, engine.Stats{}, err
	}
	sr.in = d.newPartEncoder(rel, sr.stats)
	return d.drive(ctx, sr, start, rel.NumRows())
}

// RunSegmentStage implements engine.SegmentExecutor: the same
// scheduling machinery as RunStage, except tasks name segment files
// (taskMsg.SegPath/SegCols) instead of carrying encoded partitions —
// executors read their own segment, so the driver never decodes or
// ships scan input. refs[i] becomes partition i; refs whose zone maps
// pruned them are committed driver-side as the stage pipeline applied
// to an empty partition, which keeps partition indexes stable and the
// output bitwise-equal to a full scan (aggregations over empty input
// produce the same rows either way, because the pushed filter provably
// empties those segments mid-pipeline).
func (d *Driver) RunSegmentStage(ctx context.Context, refs []engine.SegmentRef, schema relation.Schema, ops []engine.OpDesc) (*relation.Relation, engine.Stats, error) {
	start := time.Now()
	sr, err := d.newStageRun(schema, ops, len(refs))
	if err != nil {
		return nil, engine.Stats{}, err
	}
	sr.segs = refs
	rowsIn := 0
	for _, ref := range refs {
		if !ref.Pruned {
			rowsIn += ref.Rows
		} else if sr.prunedPipe == nil {
			if sr.prunedPipe, _, err = engine.CompileStage(schema, ops); err != nil {
				return nil, engine.Stats{}, err
			}
		}
	}
	return d.drive(ctx, sr, start, rowsIn)
}

// drive runs a prepared stage to completion: spans, pruned-partition
// pre-commit, the task queue with speculation, and the final stats
// fold. rowsIn is the stage's input row count (the driver cannot derive
// it for segment stages, whose partitions never materialize here).
func (d *Driver) drive(ctx context.Context, sr *stageRun, start time.Time, rowsIn int) (*relation.Relation, engine.Stats, error) {
	nParts := len(sr.outParts)
	d.live.Store(sr.stats)
	fpHex := fmt.Sprintf("%016x", sr.ship.fp)
	var stageSpan *telemetry.Span
	var spans []*telemetry.Span
	if d.Tracer.Enabled() {
		stageSpan = d.Tracer.StartSpan("stage "+fpHex,
			telemetry.A("partitions", nParts), telemetry.A("executor", d.Name()))
		spans = make([]*telemetry.Span, nParts)
		for pi := range spans {
			spans[pi] = stageSpan.Child(fmt.Sprintf("task %d", pi), telemetry.A("stage", fpHex))
			spans[pi].Event("queued")
		}
	}
	defer stageSpan.End()
	d.Tasks.BeginStage(fpHex, d.Name(), nParts)

	// Pruned segments complete before any slot dials: their output is
	// the stage pipeline over an empty partition, computed on the
	// driver. Each pruned partition gets its own ApplyContained call so
	// no output rows alias across partitions.
	run := make([]int, 0, nParts)
	for pi := 0; pi < nParts; pi++ {
		if sr.segs == nil || !sr.segs[pi].Pruned {
			run = append(run, pi)
			continue
		}
		rows, err := sr.prunedPipe.ApplyContained(nil)
		if err != nil {
			return nil, engine.Stats{}, err
		}
		sr.outParts[pi] = rows
		if spans != nil {
			spans[pi].Event("pruned")
			spans[pi].End()
		}
		d.Tasks.Done(pi)
	}
	sr.q = d.newTaskQueue("partition", nParts, run, sr.stats)
	sr.q.stageSpan, sr.q.spans, sr.q.tasks = stageSpan, spans, d.Tasks
	send := func(c *conn, _ string, pi, epoch int) (bool, error) { return d.sendTask(c, sr, pi, epoch) }
	if err := d.runQueue(ctx, sr.q, send, true); err != nil {
		return nil, engine.Stats{}, err
	}

	sr.stats.Tasks.Store(int64(nParts))
	out := &relation.Relation{Schema: sr.outSchema, Partitions: sr.outParts}
	return out, finishStats(sr.stats, start, rowsIn, out.NumRows(), nParts), nil
}

// finishStats folds a finished stage's driver-computed totals into its
// collector, so LiveStats sees them after the stage ends, and returns
// the snapshot.
func finishStats(stats *engine.StatsCollector, start time.Time, rowsIn, rowsOut, parts int) engine.Stats {
	stats.RowsIn.Store(int64(rowsIn))
	stats.RowsOut.Store(int64(rowsOut))
	stats.Partitions.Store(int64(parts))
	stats.WallNs.Store(int64(time.Since(start)))
	st := stats.Snapshot()
	engine.ObserveStage("cluster", st)
	return st
}

// stageWire prepares one stage's v3 shipment: the content fingerprint,
// the pipeline with broadcast-table rows stripped (replaced by
// content-hash references), and each distinct table columnar-encoded
// once. Both RunStage and the shuffle map phase ship stages this way.
func (d *Driver) stageWire(schema relation.Schema, ops []engine.OpDesc) (shipment, error) {
	sh := shipment{fp: engine.StageFingerprint(schema, ops), schema: schema, ops: make([]engine.OpDesc, len(ops))}
	seenTables := map[uint64]bool{}
	for i, op := range ops {
		sh.ops[i] = op
		if op.Kind != engine.OpBroadcastJoin || op.Join == nil {
			continue
		}
		th := engine.TableFingerprint(op.Join.Schema, op.Join.Rows)
		j := *op.Join
		j.Rows = nil
		j.TableHash = th
		sh.ops[i].Join = &j
		if !seenTables[th] {
			seenTables[th] = true
			data, err := colcodec.Encode(op.Join.Schema, op.Join.Rows, colcodec.Options{Compress: d.Compress, Level: d.CompressLevel})
			if err != nil {
				return shipment{}, fmt.Errorf("cluster: encode broadcast table: %w", err)
			}
			sh.tables = append(sh.tables, tableMsg{Hash: th, Schema: op.Join.Schema, Data: data})
		}
	}
	return sh, nil
}

// connect dials and handshakes one executor connection.
func (d *Driver) connect(ctx context.Context, addr string) (*conn, error) {
	dialer := net.Dialer{Timeout: d.dialTimeout()}
	raw, err := dialer.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	c := newConn(raw)
	if err := c.handshake(d.dialTimeout()); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// sleepCtx sleeps for dur or until ctx is done; it reports whether the
// full sleep elapsed.
func sleepCtx(ctx context.Context, dur time.Duration) bool {
	if dur <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(dur)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// isTimeout reports whether a transport error was caused by an expired
// read/write deadline (as opposed to a closed or reset connection).
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// taskFailure distinguishes task errors (the executor ran the task and
// reported failure) from transport errors (retry elsewhere). Task
// errors are further classified by the executor's result flags:
// retryable (environmental, e.g. spill I/O — requeue) and panicked (a
// contained panic — retry up to the panic limit, then quarantine);
// unflagged task errors are deterministic and abort the stage.
type taskFailure struct {
	taskErr   error // executor-reported task failure
	ioErr     error // transport failure
	retryable bool
	panicked  bool
}

// Error implements error.
func (t *taskFailure) Error() string {
	if t.taskErr != nil {
		return t.taskErr.Error()
	}
	return t.ioErr.Error()
}

func (t *taskFailure) Unwrap() error {
	if t.taskErr != nil {
		return t.taskErr
	}
	return t.ioErr
}

// sendTask is a stage's round trip: the stage shipment if c lacks it,
// then the task frame — an encoded partition or a segment path — and
// its result.
func (d *Driver) sendTask(c *conn, sr *stageRun, pi, epoch int) (pressured bool, err error) {
	if err := sr.ship.ship(c, sr.stats); err != nil {
		return false, err
	}
	task := taskMsg{ID: uint64(pi), Epoch: uint64(epoch), Stage: sr.ship.fp, Span: sr.q.spanFor(pi).ID()}
	if sr.segs != nil {
		// Segment-scheduled stage: the executor reads the segment file
		// itself; nothing to encode or ship.
		task.SegPath = sr.segs[pi].Path
		task.SegCols = sr.segs[pi].Cols
	} else {
		data, err := sr.in.encode(pi)
		if err != nil {
			// Encoding is driver-local and deterministic: abort, don't retry.
			return false, &taskFailure{taskErr: fmt.Errorf("cluster: task %d: encode partition: %w", pi, err)}
		}
		task.Data = data
	}
	var res resultMsg
	if err := c.exchange(frameTask, task, &res); err != nil {
		return false, err
	}
	// Memory pressure rides on every result frame, success or failure
	// (gob-additive v3 fields; old executors leave them zero, which
	// reads as "no budget configured" and disables admission control).
	if thr := d.admissionThreshold(); thr > 0 && res.MemBudget > 0 {
		pressured = float64(res.MemUsed) >= thr*float64(res.MemBudget)
	}
	if res.Err != "" {
		return pressured, &taskFailure{
			taskErr:   fmt.Errorf("cluster: task %d: %s", pi, res.Err),
			retryable: res.Retryable,
			panicked:  res.Panicked,
		}
	}
	if res.ID != uint64(pi) || res.Epoch != uint64(epoch) {
		return pressured, &taskFailure{ioErr: fmt.Errorf("cluster: task id/epoch mismatch: sent %d/%d got %d/%d", pi, epoch, res.ID, res.Epoch)}
	}
	dstart := time.Now()
	rows, err := colcodec.Decode(sr.outSchema, res.Data)
	if err != nil {
		// A payload that gob-decoded but fails the columnar codec is
		// wire corruption: retryable, like any broken frame.
		return pressured, &taskFailure{ioErr: fmt.Errorf("cluster: task %d: decode result: %w", pi, err)}
	}
	driverDecode := time.Since(dstart)
	sr.stats.DecodeNs.Add(int64(driverDecode))
	// The round trip's I/O is complete: clear busy before the commit so
	// that, when this is the stage's last task, the stage-end watcher
	// the commit triggers sees an idle connection and leaves it for the
	// persistent pool instead of closing it.
	c.busy.Store(false)
	if sp := sr.q.spanFor(pi); sp != nil {
		// The executor's timing breakdown (echoed in the result) places
		// remote work on the driver's trace without clock agreement.
		sp.Event("decoded",
			telemetry.A("remote_decode_us", time.Duration(res.DecodeNs).Microseconds()),
			telemetry.A("driver_decode_us", driverDecode.Microseconds()))
		sp.Event("executed",
			telemetry.A("exec_us", time.Duration(res.ExecNs).Microseconds()),
			telemetry.A("remote_encode_us", time.Duration(res.EncodeNs).Microseconds()))
	}
	sr.q.commit(pi, func() { sr.outParts[pi] = rows })
	return pressured, nil
}

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
// map input and its shipment, and the per-executor control links the
// begin, barrier and reduce phases run on.
type shuffleSession struct {
	d         *Driver
	id        uint64
	parts     int
	keys      []string
	schema    relation.Schema // map output = push payload schema
	endpoints []string
	sources   []uint64 // all map task ids (input partition indexes)

	in    *partEncoder
	ship  shipment // zero when the map runs no ops
	stats *engine.StatsCollector

	ctrlMu sync.Mutex
	ctrl   map[string]*link
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
		in:        d.newPartEncoder(rel, stats),
		stats:     stats,
		ctrl:      map[string]*link{},
	}
	if len(ops) > 0 {
		if ss.ship, err = d.stageWire(rel.Schema, ops); err != nil {
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

// ensureBegin opens the shuffle on a connection to addr if it has not
// been opened there yet.
func (ss *shuffleSession) ensureBegin(c *conn, addr string) error {
	if c.sentShuffles[ss.id] {
		return nil
	}
	msg := ss.beginMsg()
	msg.SelfIdx = ss.addrIdx(addr)
	var ack shuffleBeginAck
	if err := c.exchange(frameShuffleBegin, msg, &ack); err != nil {
		return err
	}
	if ack.Err != "" {
		// A rejected begin is a plan error — deterministic, not worth a
		// retry elsewhere.
		return &taskFailure{taskErr: fmt.Errorf("cluster: shuffle begin rejected: %s", ack.Err)}
	}
	c.sentShuffles[ss.id] = true
	return nil
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

// runMaps runs one map round over the given map tasks on the shared
// task-slot core (docs/FAULT_TOLERANCE.md) and blocks until all
// committed or the round failed. Map rounds are not speculated, and a
// map ack carries no memory pressure, so admission never defers them.
func (ss *shuffleSession) runMaps(ctx context.Context, tasks []int) error {
	if len(tasks) == 0 {
		return nil
	}
	q := ss.d.newTaskQueue("shuffle map", len(ss.sources), tasks, ss.stats)
	ss.openAll(ctx)
	send := func(c *conn, addr string, pi, epoch int) (bool, error) {
		return false, ss.sendMap(c, addr, q, pi, epoch)
	}
	return ss.d.runQueue(ctx, q, send, false)
}

// openAll opens the shuffle on every executor (over its control
// connection) before any map task runs. A map task pushes its buckets
// to every partition owner, so an owner that has not seen the begin
// frame yet would reject the push as an unknown shuffle; the map slots'
// own per-connection begin only reaches executors that happen to draw a
// task first. Best effort, one attempt per executor: one that cannot be
// reached now is left to the map slots' reconnects and the barrier's
// recovery rounds.
func (ss *shuffleSession) openAll(ctx context.Context) {
	var wg sync.WaitGroup
	seen := map[string]bool{}
	for _, addr := range ss.d.Addrs {
		if seen[addr] {
			continue
		}
		seen[addr] = true
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			l := ss.ctrlLink(addr)
			if l.acquire(ctx) != nil {
				return
			}
			clearDeadline := ss.d.deadline(l.c)
			err := ss.ensureBegin(l.c, addr)
			clearDeadline()
			if err != nil {
				l.broken()
			}
		}(addr)
	}
	wg.Wait()
}

// sendMap is a shuffle map task's round trip: begin and stage
// shipments as the connection needs them, then the task frame and its
// ack. Map results are counters; the data went to the peers.
func (ss *shuffleSession) sendMap(c *conn, addr string, q *taskQueue, pi, epoch int) error {
	if err := ss.ensureBegin(c, addr); err != nil {
		return err
	}
	if err := ss.ship.ship(c, ss.stats); err != nil {
		return err
	}
	data, err := ss.in.encode(pi)
	if err != nil {
		return &taskFailure{taskErr: fmt.Errorf("cluster: shuffle map %d: encode partition: %w", pi, err)}
	}
	task := shuffleMapMsg{ID: uint64(pi), Epoch: uint64(epoch), Shuffle: ss.id, Stage: ss.ship.fp, Data: data}
	var ack shuffleMapAck
	if err := c.exchange(frameShuffleMap, task, &ack); err != nil {
		return err
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
	// I/O complete: let a persistent driver pool the connection if this
	// commit ends the round (see sendTask).
	c.busy.Store(false)
	q.commit(pi, func() {
		ss.stats.Tasks.Add(1)
		ss.stats.ShuffleBytesPushed.Add(ack.PushedBytes)
	})
	return nil
}

// ctrlLink returns the session's control link to addr.
func (ss *shuffleSession) ctrlLink(addr string) *link {
	ss.ctrlMu.Lock()
	defer ss.ctrlMu.Unlock()
	l := ss.ctrl[addr]
	if l == nil {
		l = ss.d.newLink(addr, ss.stats, nil, false)
		ss.ctrl[addr] = l
	}
	return l
}

// withCtrl runs one control round trip against addr on the session's
// control link, with the shuffle opened on the connection first. An
// executor that hard-dies and rebinds its port within a few seconds
// rejoins the control plane just like it rejoins the task plane.
func (ss *shuffleSession) withCtrl(ctx context.Context, addr string, f func(c *conn) error) error {
	return ss.ctrlLink(addr).roundTrip(ctx, func(c *conn) error {
		if err := ss.ensureBegin(c, addr); err != nil {
			return err
		}
		return f(c)
	})
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
			ack = shuffleBarrierAck{}
			if err := c.exchange(frameShuffleBarrier, &shuffleBarrierMsg{Shuffle: ss.id, Sources: ss.sources}, &ack); err != nil {
				return err
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
	tasks := make([]int, len(ss.sources))
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
					ack = shuffleReduceAck{}
					if err := c.exchange(frameShuffleReduce, makeMsg(p), &ack); err != nil {
						return err
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
	ss.ctrl = map[string]*link{}
	ss.ctrlMu.Unlock()
	for _, l := range ctrl {
		if c := l.c; c != nil {
			_ = c.raw.SetDeadline(time.Now().Add(2 * time.Second))
			_ = c.exchange(frameShuffleFree, &shuffleFreeMsg{Shuffles: []uint64{ss.id}}, &shuffleFreeAck{})
		}
		l.drop()
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
	return finishShuffle(start, rel.NumRows(), &relation.Relation{Schema: ss.schema, Partitions: outParts}, ss)
}

// finishShuffle frees the plan's sessions — closing their control
// connections folds the byte counters, which include every reduce
// result payload, into the shared collector — and returns out with the
// plan's stats.
func finishShuffle(start time.Time, rowsIn int, out *relation.Relation, sessions ...*shuffleSession) (*relation.Relation, engine.Stats, error) {
	for _, s := range sessions {
		s.free()
	}
	ss := sessions[0]
	ss.stats.ShufflePartitions.Add(int64(ss.parts))
	return out, finishStats(ss.stats, start, rowsIn, out.NumRows(), ss.parts), nil
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
	return finishShuffle(start, left.NumRows()+right.NumRows(), &relation.Relation{Schema: outSchema, Partitions: outParts}, ssL, ssR)
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
	return finishShuffle(start, rel.NumRows(), &relation.Relation{Schema: finalSchema, Partitions: [][]relation.Row{merged}}, ss)
}

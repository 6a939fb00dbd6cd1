// Executor-side shuffle execution (protocol v4, docs/SHUFFLE.md): map
// tasks split their output by key hash and push every bucket to the
// peer executor owning that output partition, over pooled executor-to-
// executor connections that speak the same framed protocol as driver
// connections; reduces materialize an owned partition and run the
// partition-local computation (collect, final aggregation, or the
// broadcast-join kernel against a second shuffle's partition).
package cluster

import (
	"fmt"
	"net"
	"sync"
	"time"

	"ivnt/internal/colcodec"
	"ivnt/internal/engine"
	"ivnt/internal/memgov"
	"ivnt/internal/relation"
)

// shuffleChunkRows bounds how many rows ride in one shufflePushMsg
// frame, so one push round trip stays small and a severed peer stream
// loses (and retries) bounded work.
const shuffleChunkRows = 4096

// defaultPushTimeout bounds one peer push round trip when the driver
// does not configure one via shuffleBeginMsg.PushTimeoutMs.
const defaultPushTimeout = 30 * time.Second

// peerSlot is one pooled outgoing connection to a peer executor. Pushes
// to the same peer serialize on its mutex, which also makes the frame
// sequences of concurrent map tasks non-interleaved per (part, source).
type peerSlot struct {
	mu     sync.Mutex
	c      *conn
	dialed bool
}

// peerPool caches one outgoing connection per peer endpoint.
type peerPool struct {
	mu    sync.Mutex
	slots map[string]*peerSlot
}

func (pp *peerPool) slot(addr string) *peerSlot {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	if pp.slots == nil {
		pp.slots = map[string]*peerSlot{}
	}
	s, ok := pp.slots[addr]
	if !ok {
		s = &peerSlot{}
		pp.slots[addr] = s
	}
	return s
}

// closeAll drops every pooled peer connection (server shutdown).
func (pp *peerPool) closeAll() {
	pp.mu.Lock()
	slots := make([]*peerSlot, 0, len(pp.slots))
	for _, s := range pp.slots {
		slots = append(slots, s)
	}
	pp.mu.Unlock()
	for _, s := range slots {
		s.mu.Lock()
		if s.c != nil {
			s.c.close()
			s.c = nil
		}
		s.mu.Unlock()
	}
}

// pushKey identifies one in-flight push stream on a receiving
// connection.
type pushKey struct {
	shuffle uint64
	part    int
	source  uint64
}

// pendingRun accumulates one push stream's frames until Last commits
// it. Lifetime is the receiving connection: a dropped connection drops
// its partial streams, so a retried map task starts clean.
type pendingRun struct {
	frames  [][]byte
	nextSeq int
	bytes   int64
}

// runShuffleMap executes one map task: decode, run the shipped stage
// pipeline (if any), hash-split, and deliver every bucket to its
// partition owner. fatal=true means the input payload was undecodable
// (drop the connection, like runTask).
func (s *ExecutorServer) runShuffleMap(stages map[uint64]*engine.StagePipeline, stageErrs map[uint64]error, task *shuffleMapMsg) (ack shuffleMapAck, fatal bool) {
	ack = shuffleMapAck{ID: task.ID, Epoch: task.Epoch}
	fail := func(err error) shuffleMapAck {
		return shuffleMapAck{
			ID: task.ID, Epoch: task.Epoch, Err: err.Error(),
			Retryable: engine.IsRetryable(err), Panicked: engine.IsPanic(err),
		}
	}
	st := s.shuffles.get(task.Shuffle)
	if st == nil {
		// Executor restarted since the shuffle began; the driver re-opens
		// it on the reconnected connection and retries.
		return fail(engine.Retryable(fmt.Errorf("unknown shuffle %#x", task.Shuffle))), false
	}
	inSchema := st.schema
	var pipe *engine.StagePipeline
	if task.Stage != 0 {
		var ok bool
		pipe, ok = stages[task.Stage]
		if !ok {
			if err := stageErrs[task.Stage]; err != nil {
				return fail(err), false
			}
			return fail(fmt.Errorf("unknown stage %#x (driver sent shuffle map before stage)", task.Stage)), false
		}
		inSchema = pipe.InputSchema()
	}
	rows, err := colcodec.Decode(inSchema, task.Data)
	if err != nil {
		return shuffleMapAck{}, true
	}
	var gr *memgov.Grant
	if g := memgov.Default(); !g.Unlimited() {
		gr = g.ForceGrant(engine.RowsFootprint(rows))
	}
	defer gr.Release()
	out := rows
	if pipe != nil {
		out, err = pipe.ApplyContained(rows)
		if err != nil {
			if engine.IsPanic(err) {
				mExecPanics.Inc()
				s.logf("cluster executor: shuffle map %d: contained panic: %v", task.ID, err)
			}
			return fail(err), false
		}
	}
	split := st.split(out, st.keyIdx, st.parts)
	limited := !memgov.Default().Unlimited()
	for p, bucket := range split {
		ack.Rows += int64(len(bucket))
		if st.ownerIdx(p) == st.selfIdx {
			// Self-shortcut: commit directly, no wire. Frames are only
			// needed if the governor might deny residency and force a
			// spill.
			var frames [][]byte
			var wire int64
			if limited && len(bucket) > 0 {
				frames, wire, err = encodeBucketFrames(st, bucket)
				if err != nil {
					return fail(err), false
				}
			}
			if err := st.commit(p, task.ID, bucket, frames, wire); err != nil {
				return fail(err), false
			}
			mShufflePartsSent.Inc()
			continue
		}
		n, err := s.pushBucket(st, p, task.ID, bucket)
		if err != nil {
			// Peer transport and peer-side failures are environmental:
			// the driver requeues this map task (possibly elsewhere) and
			// the first complete re-push wins on the receiver.
			return fail(engine.Retryable(fmt.Errorf("shuffle push partition %d to %s: %w",
				p, st.endpoints[st.ownerIdx(p)], err))), false
		}
		ack.PushedBytes += n
		mShufflePartsSent.Inc()
		mShuffleBytesSent.Add(n)
	}
	s.mu.Lock()
	s.tasksRun++
	s.mu.Unlock()
	mExecTasks.Inc()
	return ack, false
}

// encodeBucketFrames chunks one bucket into colcodec frames — the wire
// payload of shufflePushMsg and the spill-run format of the receiver.
func encodeBucketFrames(st *shuffleState, bucket []relation.Row) ([][]byte, int64, error) {
	var frames [][]byte
	var total int64
	for lo := 0; lo < len(bucket); lo += shuffleChunkRows {
		hi := lo + shuffleChunkRows
		if hi > len(bucket) {
			hi = len(bucket)
		}
		data, err := colcodec.Encode(st.schema, bucket[lo:hi], colcodec.Options{Compress: st.compress})
		if err != nil {
			return nil, 0, fmt.Errorf("encode shuffle chunk: %w", err)
		}
		frames = append(frames, data)
		total += int64(len(data))
	}
	return frames, total, nil
}

// pushBucket streams one bucket to the owner of partition p over the
// pooled peer connection: one shufflePushMsg per frame, each
// acknowledged, then a Last message carrying the total row count. Any
// error invalidates the pooled connection so the next push re-dials.
func (s *ExecutorServer) pushBucket(st *shuffleState, p int, source uint64, bucket []relation.Row) (int64, error) {
	frames, wire, err := encodeBucketFrames(st, bucket)
	if err != nil {
		return 0, err
	}
	addr := st.endpoints[st.ownerIdx(p)]
	slot := s.peers.slot(addr)
	slot.mu.Lock()
	defer slot.mu.Unlock()
	to := st.pushTO
	if to <= 0 {
		to = defaultPushTimeout
	}
	if slot.c == nil {
		// A refused dial usually means the peer is restarting (hard kill
		// + rebind): keep redialing with capped backoff within the push
		// timeout, the same patience driver slots give a restarting
		// executor, instead of burning a map-task retry per attempt.
		deadline := time.Now().Add(to)
		pause := 25 * time.Millisecond
		for {
			raw, err := net.DialTimeout("tcp", addr, to)
			if err == nil {
				c := newConn(raw)
				if err = c.handshake(to); err == nil {
					if slot.dialed {
						mShufflePeerReconnects.Inc()
					}
					slot.dialed = true
					slot.c = c
					break
				}
				c.close()
			}
			if time.Now().Add(pause).After(deadline) {
				return 0, err
			}
			time.Sleep(pause)
			if pause *= 2; pause > 500*time.Millisecond {
				pause = 500 * time.Millisecond
			}
		}
	}
	c := slot.c
	roundTrip := func(msg *shufflePushMsg) error {
		_ = c.raw.SetDeadline(time.Now().Add(to))
		defer func() { _ = c.raw.SetDeadline(time.Time{}) }()
		if err := c.enc.Encode(frameHdr{Kind: frameShufflePush}); err != nil {
			return err
		}
		if err := c.enc.Encode(msg); err != nil {
			return err
		}
		var ack shufflePushAck
		if err := c.dec.Decode(&ack); err != nil {
			return err
		}
		if ack.Err != "" {
			return fmt.Errorf("peer rejected push: %s", ack.Err)
		}
		return nil
	}
	for i, frame := range frames {
		msg := &shufflePushMsg{Shuffle: st.id, Part: p, Source: source, Seq: i, Data: frame}
		if err := roundTrip(msg); err != nil {
			c.close()
			slot.c = nil
			return 0, err
		}
	}
	last := &shufflePushMsg{Shuffle: st.id, Part: p, Source: source, Seq: len(frames), Last: true, Rows: int64(len(bucket))}
	if err := roundTrip(last); err != nil {
		c.close()
		slot.c = nil
		return 0, err
	}
	return wire, nil
}

// handleShufflePush processes one incoming push frame on a receiving
// connection. pend is that connection's in-flight stream buffer.
func (s *ExecutorServer) handleShufflePush(pend map[pushKey]*pendingRun, msg *shufflePushMsg) shufflePushAck {
	st := s.shuffles.get(msg.Shuffle)
	if st == nil {
		return shufflePushAck{Err: fmt.Sprintf("unknown shuffle %#x", msg.Shuffle)}
	}
	if !st.owns(msg.Part) {
		return shufflePushAck{Err: fmt.Sprintf("shuffle %#x: partition %d not owned here", msg.Shuffle, msg.Part)}
	}
	key := pushKey{shuffle: msg.Shuffle, part: msg.Part, source: msg.Source}
	run := pend[key]
	if run == nil {
		run = &pendingRun{}
		pend[key] = run
	}
	if msg.Seq != run.nextSeq {
		delete(pend, key)
		return shufflePushAck{Err: fmt.Sprintf("shuffle %#x: push seq %d, want %d", msg.Shuffle, msg.Seq, run.nextSeq)}
	}
	run.nextSeq++
	if !msg.Last {
		if len(msg.Data) == 0 {
			delete(pend, key)
			return shufflePushAck{Err: fmt.Sprintf("shuffle %#x: empty push frame", msg.Shuffle)}
		}
		run.frames = append(run.frames, msg.Data)
		run.bytes += int64(len(msg.Data))
		return shufflePushAck{}
	}
	// Last: decode and cross-check before committing, so corruption that
	// survived the transport surfaces here as a rejected push (the map
	// task retries) rather than later as a wrong reduce.
	delete(pend, key)
	var rows []relation.Row
	for _, frame := range run.frames {
		decoded, err := colcodec.Decode(st.schema, frame)
		if err != nil {
			return shufflePushAck{Err: fmt.Sprintf("shuffle %#x: corrupt partition frame: %v", msg.Shuffle, err)}
		}
		rows = append(rows, decoded...)
	}
	if int64(len(rows)) != msg.Rows {
		return shufflePushAck{Err: fmt.Sprintf("shuffle %#x: partition %d source %d: got %d rows, declared %d",
			msg.Shuffle, msg.Part, msg.Source, len(rows), msg.Rows)}
	}
	if err := st.commit(msg.Part, msg.Source, rows, run.frames, run.bytes); err != nil {
		return shufflePushAck{Err: err.Error()}
	}
	mShuffleBytesRecv.Add(run.bytes)
	return shufflePushAck{}
}

// runShuffleReduce materializes one owned partition and computes the
// requested partition-local reduce.
func (s *ExecutorServer) runShuffleReduce(msg *shuffleReduceMsg) shuffleReduceAck {
	fail := func(err error) shuffleReduceAck {
		return shuffleReduceAck{
			Part: msg.Part, Err: err.Error(),
			Retryable: engine.IsRetryable(err), Panicked: engine.IsPanic(err),
		}
	}
	st := s.shuffles.get(msg.Shuffle)
	if st == nil {
		return fail(engine.Retryable(fmt.Errorf("unknown shuffle %#x", msg.Shuffle)))
	}
	rows, err := st.materialize(msg.Part, msg.Sources)
	if err != nil {
		return fail(err)
	}
	var gr *memgov.Grant
	if g := memgov.Default(); !g.Unlimited() {
		gr = g.ForceGrant(engine.RowsFootprint(rows))
	}
	defer gr.Release()

	var outSchema relation.Schema
	var out []relation.Row
	switch msg.Kind {
	case reduceCollect:
		outSchema, out = st.schema, rows
	case reduceFinalAgg:
		partials := &relation.Relation{Schema: st.schema, Partitions: [][]relation.Row{rows}}
		final, err := engine.MergePartials(partials, msg.GroupBy, msg.Aggs)
		if err != nil {
			return fail(err)
		}
		outSchema, out = final.Schema, final.Rows()
	case reduceJoin:
		st2 := s.shuffles.get(msg.Shuffle2)
		if st2 == nil {
			return fail(engine.Retryable(fmt.Errorf("unknown shuffle %#x", msg.Shuffle2)))
		}
		build, err := st2.materialize(msg.Part, msg.Sources2)
		if err != nil {
			return fail(err)
		}
		var gr2 *memgov.Grant
		if g := memgov.Default(); !g.Unlimited() {
			gr2 = g.ForceGrant(engine.RowsFootprint(build))
		}
		// The per-partition join runs the exact broadcast-join kernel
		// with the right partition as the build table, so a shuffle join
		// is bitwise the broadcast plan applied partition by partition.
		buildRel := &relation.Relation{Schema: st2.schema, Partitions: [][]relation.Row{build}}
		pipe, _, err := engine.CompileStage(st.schema, []engine.OpDesc{
			engine.BroadcastJoin(buildRel, msg.LeftKeys, msg.RightKeys),
		})
		if err != nil {
			gr2.Release()
			return fail(err)
		}
		out, err = pipe.ApplyContained(rows)
		gr2.Release()
		if err != nil {
			if engine.IsPanic(err) {
				mExecPanics.Inc()
			}
			return fail(err)
		}
		outSchema = pipe.OutputSchema()
	default:
		return fail(fmt.Errorf("unknown shuffle reduce kind %d", msg.Kind))
	}
	data, err := colcodec.Encode(outSchema, out, colcodec.Options{Compress: msg.Compress})
	if err != nil {
		return fail(err)
	}
	s.mu.Lock()
	s.tasksRun++
	s.mu.Unlock()
	mExecTasks.Inc()
	return shuffleReduceAck{Part: msg.Part, Data: data}
}

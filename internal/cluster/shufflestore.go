// Executor-side shuffle state (protocol v4, docs/SHUFFLE.md): every
// ExecutorServer carries one shuffleStore holding, per open shuffle,
// the committed bucket runs pushed to it by map tasks — its own and its
// peers'. Runs commit atomically when a push stream's Last frame
// arrives and the decoded rows cross-check against the declared count;
// partial streams whose connection drops leave no trace, so a retried
// map task simply pushes again and the first complete run of a
// (partition, source) pair wins. Committed rows are held under memory
// governor grants; when the governor denies a grant the run's frames
// spill to a disk file in the same uvarint-framed colcodec format the
// engine's spill runs use (internal/colcodec.FrameWriter), and are
// decoded back only when a reduce materializes the partition.
package cluster

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"ivnt/internal/colcodec"
	"ivnt/internal/engine"
	"ivnt/internal/memgov"
	"ivnt/internal/relation"
)

// shuffleState is one shuffle's configuration and committed runs on one
// executor.
type shuffleState struct {
	id        uint64
	endpoints []string
	selfIdx   int
	parts     int
	keys      []string
	keyIdx    []int
	split     func([]relation.Row, []int, int) [][]relation.Row // engine.ShuffleSplit or engine.AggSplit
	schema    relation.Schema
	compress  bool
	pushTO    time.Duration

	mu sync.Mutex
	// runs[part][source] is the committed bucket run pushed by map task
	// `source` for output partition `part`.
	runs map[int]map[uint64]*shuffleRunData
}

// shuffleRunData is one committed (partition, source) bucket run:
// resident rows under a governor grant, or frames spilled to disk.
type shuffleRunData struct {
	rows  []relation.Row // resident form (nil when spilled)
	spill string         // spill file path (frames), "" when resident
	nrows int64
	bytes int64 // wire payload bytes (sum of frame lengths)
	grant *memgov.Grant
}

func (r *shuffleRunData) free() {
	r.grant.Release()
	r.grant = nil
	r.rows = nil
	if r.spill != "" {
		_ = os.Remove(r.spill)
		r.spill = ""
	}
}

// owns reports whether this executor owns output partition p.
func (st *shuffleState) owns(p int) bool {
	return p%len(st.endpoints) == st.selfIdx
}

// ownerIdx returns the endpoint index owning partition p.
func (st *shuffleState) ownerIdx(p int) int { return p % len(st.endpoints) }

// commit installs one complete bucket run. First complete run per
// (part, source) wins: map-task retries re-push deterministically
// identical rows, so duplicates are discarded, not appended. Resident
// storage asks the governor for the rows' footprint; on denial the
// already-encoded frames go to a spill file instead and the rows are
// dropped.
func (st *shuffleState) commit(part int, source uint64, rows []relation.Row, frames [][]byte, wireBytes int64) error {
	run := &shuffleRunData{nrows: int64(len(rows)), bytes: wireBytes}
	if len(rows) > 0 {
		if g := memgov.Default(); !g.Unlimited() {
			run.grant = g.TryGrant(engine.RowsFootprint(rows))
			if run.grant == nil {
				// Denied: spill the frames as received — no re-encode.
				path, n, err := writeShuffleSpill(frames)
				if err != nil {
					return engine.Retryable(fmt.Errorf("shuffle spill: %w", err))
				}
				run.spill = path
				mShuffleSpills.Inc()
				mShuffleSpillBytes.Add(n)
			}
		}
		if run.spill == "" {
			run.rows = rows
		}
	}
	st.mu.Lock()
	if st.runs[part] == nil {
		st.runs[part] = map[uint64]*shuffleRunData{}
	}
	_, dup := st.runs[part][source]
	if !dup {
		st.runs[part][source] = run
	}
	st.mu.Unlock()
	if dup {
		run.free()
		return nil
	}
	mShufflePartsRecv.Inc()
	return nil
}

// writeShuffleSpill writes frames to a fresh temp file in spill-run
// format and returns its path and byte size.
func writeShuffleSpill(frames [][]byte) (string, int64, error) {
	f, err := os.CreateTemp("", "ivnt-shuffle-*.run")
	if err != nil {
		return "", 0, err
	}
	fw := colcodec.NewFrameWriter(f)
	for _, fr := range frames {
		if err := fw.WriteFrame(fr); err != nil {
			f.Close()
			os.Remove(f.Name())
			return "", 0, err
		}
	}
	if err := fw.Flush(); err != nil {
		f.Close()
		os.Remove(f.Name())
		return "", 0, err
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return "", 0, err
	}
	return f.Name(), fw.Bytes(), nil
}

// missing returns, sorted, the sources with no committed run on any
// partition this executor owns, plus committed row/byte totals.
func (st *shuffleState) missing(sources []uint64) (miss []uint64, rows, bytes int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	missSet := map[uint64]bool{}
	for p := 0; p < st.parts; p++ {
		if !st.owns(p) {
			continue
		}
		for _, src := range sources {
			run, ok := st.runs[p][src]
			if !ok {
				missSet[src] = true
				continue
			}
			rows += run.nrows
			bytes += run.bytes
		}
	}
	for src := range missSet {
		miss = append(miss, src)
	}
	sort.Slice(miss, func(i, j int) bool { return miss[i] < miss[j] })
	return miss, rows, bytes
}

// materialize returns partition p's rows: every committed run
// concatenated in ascending source order — the same order the driver's
// single-process reference (Relation.PartitionByKey over partitions in
// order) produces, which is what keeps the distributed exchange bitwise
// deterministic. Spilled runs decode from their frame files.
func (st *shuffleState) materialize(p int, sources []uint64) ([]relation.Row, error) {
	st.mu.Lock()
	runs := st.runs[p]
	ordered := make([]*shuffleRunData, 0, len(sources))
	var total int64
	for _, src := range sources {
		run, ok := runs[src]
		if !ok {
			st.mu.Unlock()
			return nil, engine.Retryable(fmt.Errorf("shuffle %#x partition %d: source %d not materialized", st.id, p, src))
		}
		ordered = append(ordered, run)
		total += run.nrows
	}
	st.mu.Unlock()
	out := make([]relation.Row, 0, total)
	for _, run := range ordered {
		if run.spill == "" {
			out = append(out, run.rows...)
			continue
		}
		rows, err := readShuffleSpill(run.spill, st.schema)
		if err != nil {
			return nil, err
		}
		out = append(out, rows...)
	}
	return out, nil
}

// readShuffleSpill decodes one spilled run file back into rows.
func readShuffleSpill(path string, schema relation.Schema) ([]relation.Row, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, engine.Retryable(fmt.Errorf("shuffle spill read: %w", err))
	}
	defer f.Close()
	fr := colcodec.NewFrameReader(f)
	var out []relation.Row
	for {
		frame, err := fr.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, engine.Retryable(fmt.Errorf("shuffle spill read: %w", err))
		}
		rows, err := colcodec.Decode(schema, frame)
		if err != nil {
			return nil, engine.Retryable(fmt.Errorf("shuffle spill decode: %w", err))
		}
		out = append(out, rows...)
	}
	return out, nil
}

// freeAll releases every run's grant and spill file.
func (st *shuffleState) freeAll() {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, runs := range st.runs {
		for _, run := range runs {
			run.free()
		}
	}
	st.runs = map[int]map[uint64]*shuffleRunData{}
}

// shuffleStore tracks every open shuffle on one executor server.
type shuffleStore struct {
	mu       sync.Mutex
	shuffles map[uint64]*shuffleState
}

// begin opens (or idempotently re-opens) a shuffle. A repeat with the
// same ID keeps the existing state — reconnecting drivers re-send begin
// frames exactly like they re-ship stages.
func (ss *shuffleStore) begin(msg *shuffleBeginMsg, defaultPushTO time.Duration) (*shuffleState, error) {
	if msg.Parts < 1 || len(msg.Endpoints) == 0 || msg.SelfIdx < 0 || msg.SelfIdx >= len(msg.Endpoints) {
		return nil, fmt.Errorf("shuffle %#x: invalid begin (parts=%d endpoints=%d self=%d)",
			msg.ID, msg.Parts, len(msg.Endpoints), msg.SelfIdx)
	}
	if len(msg.Keys) == 0 {
		return nil, fmt.Errorf("shuffle %#x: no key columns", msg.ID)
	}
	keyIdx := make([]int, len(msg.Keys))
	for i, k := range msg.Keys {
		keyIdx[i] = msg.Schema.Index(k)
		if keyIdx[i] < 0 {
			return nil, fmt.Errorf("shuffle %#x: key %q missing from payload schema", msg.ID, k)
		}
	}
	pushTO := defaultPushTO
	if msg.PushTimeoutMs > 0 {
		pushTO = time.Duration(msg.PushTimeoutMs) * time.Millisecond
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.shuffles == nil {
		ss.shuffles = map[uint64]*shuffleState{}
	}
	if st, ok := ss.shuffles[msg.ID]; ok {
		return st, nil
	}
	st := &shuffleState{
		id:        msg.ID,
		endpoints: append([]string(nil), msg.Endpoints...),
		selfIdx:   msg.SelfIdx,
		parts:     msg.Parts,
		keys:      append([]string(nil), msg.Keys...),
		keyIdx:    keyIdx,
		split:     engine.ShuffleSplit,
		schema:    msg.Schema,
		compress:  msg.Compress,
		pushTO:    pushTO,
		runs:      map[int]map[uint64]*shuffleRunData{},
	}
	if msg.AggRoute {
		st.split = engine.AggSplit
	}
	ss.shuffles[msg.ID] = st
	return st, nil
}

// get returns the shuffle's state, or nil when unknown (executor
// restarted since begin; the caller reports a retryable error and the
// driver re-opens the shuffle on its reconnected connection).
func (ss *shuffleStore) get(id uint64) *shuffleState {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.shuffles[id]
}

// free drops the listed shuffles and releases their resources.
func (ss *shuffleStore) free(ids []uint64) {
	ss.mu.Lock()
	var victims []*shuffleState
	for _, id := range ids {
		if st, ok := ss.shuffles[id]; ok {
			victims = append(victims, st)
			delete(ss.shuffles, id)
		}
	}
	ss.mu.Unlock()
	for _, st := range victims {
		st.freeAll()
	}
}

// freeAll drops every shuffle (server shutdown).
func (ss *shuffleStore) freeAll() {
	ss.mu.Lock()
	victims := make([]*shuffleState, 0, len(ss.shuffles))
	for id, st := range ss.shuffles {
		victims = append(victims, st)
		delete(ss.shuffles, id)
	}
	ss.mu.Unlock()
	for _, st := range victims {
		st.freeAll()
	}
}

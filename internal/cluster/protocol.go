// Package cluster distributes engine stages across executor processes
// over TCP — the stand-in for the paper's Spark cluster (Sec. 5.1 runs
// on 70 servers; we run the same operator plans on N executors reachable
// over stdlib net, or in-process for tests).
//
// The wire protocol (v3) ships each stage once per connection: a
// stageMsg carries the operator pipeline, the input schema, and any
// broadcast-join tables (keyed by content hash, columnar-encoded), and
// executors cache the compiled pipeline by stage fingerprint. Tasks
// then shrink to {id, epoch, stage fingerprint, columnar partition} —
// bytes on the wire scale with partition data, not with stage size, the
// same economics Spark gets from broadcast variables and per-stage
// closures. Rules still ride along as expression text, so executors
// need no code shipping, mirroring how the paper submits one-time
// parameterization to its Big Data jobs.
package cluster

import (
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"ivnt/internal/engine"
	"ivnt/internal/relation"
)

// protocolVersion guards against driver/executor skew. Version 2 added
// the task epoch (speculative re-execution, duplicate-result discard);
// version 3 added stage-once shipping (stageMsg, content-hashed
// broadcast tables, executor-side pipeline caching) and the columnar
// partition codec (internal/colcodec); version 4 added the
// hash-partitioned shuffle exchange (docs/SHUFFLE.md): six new frame
// kinds for shuffle setup, map tasks, executor-to-executor partition
// pushes, the materialization barrier, partition-local reduces and
// cleanup. New frame kinds are not gob-additive — a v3 peer would
// reject them as unknown frames mid-stream — hence the version bump.
const protocolVersion = 4

// magic identifies the protocol on connect.
const magic = "IVNT"

type helloMsg struct {
	Magic   string
	Version int
}

type helloAck struct {
	OK      bool
	Version int
	// Capacity advertises how many tasks the executor is willing to run
	// concurrently; informational.
	Capacity int
}

// Frame kinds. Every driver→executor message after the handshake is a
// frameHdr followed by the payload it announces, so the executor knows
// whether to expect a stage shipment or a task.
const (
	frameStage uint8 = 1
	frameTask  uint8 = 2
	// Shuffle frames (protocol v4). Begin/map/barrier/reduce/free travel
	// driver→executor; push travels executor→executor on peer
	// connections, which use the same handshake and frame format as
	// driver connections, so one server loop handles both.
	frameShuffleBegin   uint8 = 3
	frameShuffleMap     uint8 = 4
	frameShufflePush    uint8 = 5
	frameShuffleBarrier uint8 = 6
	frameShuffleReduce  uint8 = 7
	frameShuffleFree    uint8 = 8
)

type frameHdr struct {
	Kind uint8
}

// tableMsg is one broadcast-join table, shipped at most once per
// connection and cached by content hash on the executor. Rows are
// columnar-encoded against Schema.
type tableMsg struct {
	Hash   uint64
	Schema relation.Schema
	Data   []byte
}

// stageMsg ships one stage: the operator pipeline (broadcast tables
// stripped and replaced by JoinSpec.TableHash references), the input
// schema, and whichever referenced tables this connection has not seen
// yet. The fingerprint is the content hash of the complete stage
// (schema + ops + table contents), so executor caches can never serve
// a stale entry: a different stage is a different fingerprint.
type stageMsg struct {
	Fingerprint uint64
	Schema      relation.Schema
	Ops         []engine.OpDesc
	Tables      []tableMsg
}

// taskMsg carries one partition, columnar-encoded against the stage's
// input schema, plus the fingerprint of the (already shipped) stage to
// apply. Epoch distinguishes re-dispatches of the same task (retries
// and speculative copies); executors echo it so the driver can discard
// stale or desynchronized results.
//
// Span is the driver-side trace span ID of this task launch, echoed in
// the result. It and the result's timing fields are additive within
// protocol v3: gob zeroes fields a peer does not send and ignores
// fields it does not know, so v3 binaries with and without them
// interoperate — no version bump.
type taskMsg struct {
	ID    uint64
	Epoch uint64
	Stage uint64
	Span  uint64
	Data  []byte
	// SegPath/SegCols describe a segment-backed task (protocol v4,
	// gob-additive like the v3 trace fields): instead of shipping the
	// partition in Data, the driver names a segment file the executor
	// reads itself, restricted to SegCols (nil = every column). Data is
	// nil for such tasks; executors that predate the fields see an
	// empty partition, but such executors also never receive one —
	// segment scheduling is opt-in per stage via Driver.RunSegmentStage.
	SegPath string
	SegCols []string
}

// resultMsg returns the transformed partition, columnar-encoded against
// the stage's output schema (which the driver computed before shipping
// anything), or a task error.
type resultMsg struct {
	ID    uint64
	Epoch uint64
	Span  uint64
	Data  []byte
	// DecodeNs/ExecNs/EncodeNs break down where the executor spent this
	// task's time (partition decode, pipeline execution, result encode),
	// so driver-side traces show remote time without clock agreement.
	DecodeNs int64
	ExecNs   int64
	EncodeNs int64
	// Err is a task failure (e.g. a malformed rule); unless flagged
	// Retryable, the driver aborts the stage rather than re-running
	// elsewhere.
	Err string
	// Retryable marks Err as environmental (disk full during spill, a
	// truncated spill file): the work is sound, so the driver requeues
	// the task instead of failing the stage. Panicked marks Err as a
	// recovered panic (Err carries the stack); the driver retries but
	// quarantines the task as poisoned after repeated panics. MemUsed
	// and MemBudget snapshot the executor's memory governor after the
	// task, feeding driver-side admission control. All four are
	// gob-additive within protocol v3, like Span and the timing fields.
	Retryable bool
	Panicked  bool
	MemUsed   int64
	MemBudget int64
}

// Shuffle reduce kinds: what an executor computes over the partitions
// it owns once a shuffle is fully materialized.
const (
	// reduceCollect returns the partition's rows unchanged (a plain
	// repartition-and-fetch, what Driver.ShuffleMaterialize uses).
	reduceCollect uint8 = 1
	// reduceFinalAgg merges the partition's partial-aggregate rows into
	// finals (the reduce side of the shuffle aggregation plan).
	reduceFinalAgg uint8 = 2
	// reduceJoin hash-joins the partition of the primary (left) shuffle
	// against the same partition of a second (right) shuffle using the
	// engine's broadcast-join kernel, so per-partition results are
	// bitwise identical to what the broadcast plan would produce.
	reduceJoin uint8 = 3
)

// shuffleBeginMsg opens one shuffle on an executor: the endpoint map
// (partition p is owned by Endpoints[p%len(Endpoints)]; SelfIdx is this
// executor's slot in it), the fan-out, the hash key columns, and the
// schema the pushed partition payloads are columnar-encoded against.
// The driver sends it once per shuffle per connection — like stageMsg,
// a reconnected executor receives it again — and executors treat
// repeats as idempotent.
type shuffleBeginMsg struct {
	ID        uint64
	Endpoints []string
	SelfIdx   int
	Parts     int
	Keys      []string
	Schema    relation.Schema
	Compress  bool
	// PushTimeoutMs bounds one peer push round trip (chunk write + ack
	// read) on the map side. 0 means the executor default.
	PushTimeoutMs int64
}

type shuffleBeginAck struct {
	Err string
}

// shuffleMapMsg is one shuffle map task: decode the carried input
// partition, run the (already shipped) stage pipeline over it if Stage
// is nonzero, split the output by key hash, and push every bucket to
// the executor that owns the corresponding output partition. ID doubles
// as the push dedup source: re-executions of the same map task push
// under the same source id and the first complete run of a (partition,
// source) pair wins, so retries cannot duplicate rows.
type shuffleMapMsg struct {
	ID      uint64
	Epoch   uint64
	Shuffle uint64
	Stage   uint64
	Data    []byte
}

// shuffleMapAck reports one map task's outcome. PushedBytes counts
// peer-wire payload bytes (self-owned buckets never hit a socket and
// are excluded); Rows counts all routed rows.
type shuffleMapAck struct {
	ID          uint64
	Epoch       uint64
	Rows        int64
	PushedBytes int64
	Err         string
	Retryable   bool
	Panicked    bool
}

// shufflePushMsg streams one bucket of one map task to the partition
// owner as a sequence of colcodec frames — the exact run format the
// engine's spill files use, so the receiver can spill the frames to
// disk under memory pressure without re-encoding. Frames for one
// (Shuffle, Part, Source) arrive in Seq order on one connection; Last
// closes the run (its Rows is the total row count, cross-checked
// against the decoded frames before the run commits). A frameless Last
// commits an empty run, so every (partition, source) pair commits even
// when no rows hashed there — which is what lets the barrier treat
// "missing" as "map output lost", never "map output empty".
type shufflePushMsg struct {
	Shuffle uint64
	Part    int
	Source  uint64
	Seq     int
	Data    []byte
	Last    bool
	Rows    int64
}

type shufflePushAck struct {
	Err string
}

// shuffleBarrierMsg asks an executor whether every partition it owns
// has a committed run from every map source. The ack lists the sources
// still missing anywhere (the driver re-enqueues exactly those map
// tasks) plus committed row/byte totals for observability.
type shuffleBarrierMsg struct {
	Shuffle uint64
	Sources []uint64
}

type shuffleBarrierAck struct {
	Missing []uint64
	Rows    int64
	Bytes   int64
	Err     string
}

// shuffleReduceMsg runs one partition-local reduce on the partition's
// owner and returns the result rows in the ack, columnar-encoded.
// Sources re-states the complete map-source set so the reduce fails
// retryably — instead of silently computing over partial data — if the
// executor lost runs (e.g. restarted) after the barrier passed.
// Shuffle2/Sources2 name the right-side shuffle for reduceJoin;
// GroupBy/Aggs parameterize reduceFinalAgg; LeftKeys/RightKeys
// parameterize reduceJoin.
type shuffleReduceMsg struct {
	Shuffle   uint64
	Shuffle2  uint64
	Part      int
	Kind      uint8
	Sources   []uint64
	Sources2  []uint64
	GroupBy   []string
	Aggs      []engine.AggSpec
	LeftKeys  []string
	RightKeys []string
	Compress  bool
}

type shuffleReduceAck struct {
	Part      int
	Data      []byte
	Err       string
	Retryable bool
	Panicked  bool
}

// shuffleFreeMsg releases executor-side shuffle state (committed runs,
// memory grants, spill files). Best-effort: executors also free
// everything on shutdown.
type shuffleFreeMsg struct {
	Shuffles []uint64
}

type shuffleFreeAck struct{}

// countingRW wraps the raw connection and counts bytes in both
// directions, so the driver can report exact bytes-on-wire per stage.
// Each conn is driven by a single goroutine, so plain int64s suffice.
type countingRW struct {
	rw      io.ReadWriter
	read    int64
	written int64
}

func (c *countingRW) Read(p []byte) (int, error) {
	n, err := c.rw.Read(p)
	c.read += int64(n)
	return n, err
}

func (c *countingRW) Write(p []byte) (int, error) {
	n, err := c.rw.Write(p)
	c.written += int64(n)
	return n, err
}

// conn wraps a net.Conn with gob codecs, byte counters and per-
// connection v3 shipping state: which stages and broadcast tables the
// remote end has already received on this connection. A reconnect
// builds a fresh conn, so the driver naturally re-ships the stage to a
// restarted executor.
type conn struct {
	raw   net.Conn
	count *countingRW
	enc   *gob.Encoder
	dec   *gob.Decoder

	sentStages map[uint64]bool
	sentTables map[uint64]bool
	// sentShuffles tracks which shuffles this connection has opened with
	// a shuffleBeginMsg, so reconnects naturally re-open them (protocol
	// v4; same lifetime discipline as sentStages).
	sentShuffles map[uint64]bool

	// busy is set while a task round trip is in flight on this
	// connection. A persistent driver's stage-end watcher only closes
	// busy connections (to unblock a stalled read); idle ones survive
	// into the pool with their sentStages/sentTables caches warm.
	busy atomic.Bool
	// harvestedW/R mark how much of the cumulative byte counters has
	// been folded into stage stats, so pooled connections reused across
	// stages attribute each stage only its own delta (see takeCounts).
	harvestedW, harvestedR int64
}

// takeCounts returns the bytes written/read since the previous call and
// commits the new high-water marks. Callers must own the connection
// (no concurrent I/O).
func (c *conn) takeCounts() (written, read int64) {
	written = c.count.written - c.harvestedW
	read = c.count.read - c.harvestedR
	c.harvestedW, c.harvestedR = c.count.written, c.count.read
	return written, read
}

func newConn(raw net.Conn) *conn {
	c := &countingRW{rw: raw}
	return &conn{
		raw:          raw,
		count:        c,
		enc:          gob.NewEncoder(c),
		dec:          gob.NewDecoder(c),
		sentStages:   map[uint64]bool{},
		sentTables:   map[uint64]bool{},
		sentShuffles: map[uint64]bool{},
	}
}

func (c *conn) close() { _ = c.raw.Close() }

// exchange sends one driver frame (header, then msg) and, when reply is
// non-nil, decodes the executor's reply into it. Any failure is a
// transport failure.
func (c *conn) exchange(kind uint8, msg, reply any) error {
	err := c.enc.Encode(frameHdr{Kind: kind})
	if err == nil {
		err = c.enc.Encode(msg)
	}
	if err == nil && reply != nil {
		err = c.dec.Decode(reply)
	}
	if err != nil {
		return &taskFailure{ioErr: err}
	}
	return nil
}

// handshake runs the driver side of the version exchange.
func (c *conn) handshake(timeout time.Duration) error {
	if timeout > 0 {
		_ = c.raw.SetDeadline(time.Now().Add(timeout))
		defer func() { _ = c.raw.SetDeadline(time.Time{}) }()
	}
	if err := c.enc.Encode(helloMsg{Magic: magic, Version: protocolVersion}); err != nil {
		return fmt.Errorf("cluster: handshake send: %w", err)
	}
	var ack helloAck
	if err := c.dec.Decode(&ack); err != nil {
		return fmt.Errorf("cluster: handshake recv: %w", err)
	}
	if !ack.OK {
		return fmt.Errorf("cluster: executor rejected handshake (version %d, ours %d)", ack.Version, protocolVersion)
	}
	return nil
}

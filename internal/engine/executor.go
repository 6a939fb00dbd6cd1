package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"ivnt/internal/memgov"
	"ivnt/internal/relation"
)

// Stats aggregates execution counters for one stage run. The bench
// harness reads these to report reduction ratios (Ablation A3).
type Stats struct {
	RowsIn     int
	RowsOut    int
	Partitions int
	Wall       time.Duration
	Tasks      int
	Retries    int
	// Fault-tolerance counters (populated by the cluster driver):
	// Reconnects counts re-established executor connections,
	// Speculative counts straggler tasks re-dispatched speculatively,
	// DeadlineHits counts task round trips that exceeded the per-task
	// deadline.
	Reconnects   int
	Speculative  int
	DeadlineHits int
	// Wire counters (populated by the cluster driver, protocol v3):
	// BytesSent/BytesRecv are bytes written to / read from executor
	// connections (handshakes, stage shipments, tasks, results);
	// StagesShipped counts stageMsg sends (once per stage per
	// connection, plus re-sends after reconnects); EncodeWall and
	// DecodeWall accumulate driver-side columnar codec time.
	BytesSent     int64
	BytesRecv     int64
	StagesShipped int
	EncodeWall    time.Duration
	DecodeWall    time.Duration
	// AdmissionDeferrals counts dispatch pauses the cluster driver
	// inserted because an executor reported memory pressure in its
	// result frames (admission control; see docs/MEMORY.md).
	AdmissionDeferrals int
	// Shuffle counters (populated by the cluster driver's shuffle
	// scheduler, protocol v4; see docs/SHUFFLE.md): ShufflePartitions
	// counts shuffle output partitions materialized across executors,
	// ShuffleBytesPushed counts executor-to-executor partition payload
	// bytes (peer streams never cross the driver, so BytesSent/Recv
	// cannot see them), ShuffleBarrierWall accumulates driver time
	// spent in barrier rounds waiting for shuffles to materialize.
	ShufflePartitions  int
	ShuffleBytesPushed int64
	ShuffleBarrierWall time.Duration
	// SegmentsAnswered counts segments whose partial aggregate
	// ScanAggregate took from the segment footer instead of decoding.
	SegmentsAnswered int
	// PagesScanned and PagesPruned count, over the live segments whose
	// footers a pushed filter made the scan consult, the pages it read
	// and the pages their page zone maps let it skip.
	PagesScanned int
	PagesPruned  int
}

// Add accumulates another stage's stats.
func (s *Stats) Add(o Stats) {
	s.RowsIn += o.RowsIn
	s.RowsOut += o.RowsOut
	s.Partitions += o.Partitions
	s.Wall += o.Wall
	s.Tasks += o.Tasks
	s.Retries += o.Retries
	s.Reconnects += o.Reconnects
	s.Speculative += o.Speculative
	s.DeadlineHits += o.DeadlineHits
	s.BytesSent += o.BytesSent
	s.BytesRecv += o.BytesRecv
	s.StagesShipped += o.StagesShipped
	s.EncodeWall += o.EncodeWall
	s.DecodeWall += o.DecodeWall
	s.AdmissionDeferrals += o.AdmissionDeferrals
	s.ShufflePartitions += o.ShufflePartitions
	s.ShuffleBytesPushed += o.ShuffleBytesPushed
	s.ShuffleBarrierWall += o.ShuffleBarrierWall
	s.SegmentsAnswered += o.SegmentsAnswered
	s.PagesScanned += o.PagesScanned
	s.PagesPruned += o.PagesPruned
}

// Executor runs a stage — a narrow-operator pipeline over every
// partition of a relation — somewhere: in-process (Local) or on a TCP
// cluster (internal/cluster.Driver).
type Executor interface {
	// RunStage applies ops to each partition of rel and returns the
	// resulting relation with the same partition count and order.
	RunStage(ctx context.Context, rel *relation.Relation, ops []OpDesc) (*relation.Relation, Stats, error)
	// Name identifies the executor for reports.
	Name() string
}

// Local is the in-process data-parallel executor: a worker pool
// processes partitions concurrently, the moral equivalent of running
// Spark in local[N] mode.
type Local struct {
	// Workers is the pool size; 0 means GOMAXPROCS.
	Workers int
}

// NewLocal returns a Local executor with the given worker count.
func NewLocal(workers int) *Local { return &Local{Workers: workers} }

// Name implements Executor.
func (l *Local) Name() string { return fmt.Sprintf("local[%d]", l.workers()) }

func (l *Local) workers() int {
	if l.Workers > 0 {
		return l.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// RunStage implements Executor.
func (l *Local) RunStage(ctx context.Context, rel *relation.Relation, ops []OpDesc) (*relation.Relation, Stats, error) {
	start := time.Now()
	// The cached-compile path: repeated stages (per-journey extraction
	// loops, retried plans) compile — and build their broadcast hash
	// tables — once per distinct stage, not once per RunStage call.
	pipe, _, err := CompileStage(rel.Schema, ops)
	if err != nil {
		return nil, Stats{}, err
	}
	nParts := len(rel.Partitions)
	outParts := make([][]relation.Row, nParts)
	errs := make([]error, nParts)

	workers := l.workers()
	if workers > nParts {
		workers = nParts
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	next := make(chan int)
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pi := range next {
				if cctx.Err() != nil {
					errs[pi] = cctx.Err()
					continue
				}
				t0 := time.Now()
				// Input partitions are already resident; record their
				// footprint with the governor so spilling operators see
				// honest pressure, and contain panics so one poisoned
				// partition fails the stage instead of the process.
				var gr *memgov.Grant
				if g := memgov.Default(); !g.Unlimited() {
					gr = g.ForceGrant(RowsFootprint(rel.Partitions[pi]))
				}
				out, err := pipe.ApplyContained(rel.Partitions[pi])
				gr.Release()
				ObserveTask("local", time.Since(t0))
				if err != nil {
					errs[pi] = err
					cancel()
					continue
				}
				outParts[pi] = out
			}
		}()
	}
	for pi := 0; pi < nParts; pi++ {
		next <- pi
	}
	close(next)
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return nil, Stats{}, err
		}
	}
	out := &relation.Relation{Schema: pipe.OutputSchema(), Partitions: outParts}
	st := Stats{
		RowsIn:     rel.NumRows(),
		RowsOut:    out.NumRows(),
		Partitions: nParts,
		Wall:       time.Since(start),
		Tasks:      nParts,
	}
	ObserveStage("local", st)
	return out, st, nil
}

package cluster

import (
	"context"
	"fmt"
	"testing"

	"ivnt/internal/engine"
	"ivnt/internal/relation"
	"ivnt/internal/rules"
)

// benchStage is the wire benchmark's interpretation stage at a small
// fixed size, reused across cluster benchmark variants.
func benchStage() (*relation.Relation, []engine.OpDesc) {
	const nRows, nParts, nTable = 8000, 8, 128
	rows := make([]relation.Row, nRows)
	for i := range rows {
		rows[i] = relation.Row{
			relation.Float(float64(i) * 0.01),
			relation.Int(int64(i % nTable)),
			relation.Bytes([]byte{byte(i), byte(i >> 8)}),
			relation.Str("FC"),
		}
	}
	rel := relation.FromRows(traceRel(0, 1).Schema, rows).Repartition(nParts)
	ts := make([]rules.Translation, nTable)
	for i := range ts {
		ts[i] = rules.Translation{SID: fmt.Sprintf("s%d", i), Channel: "FC", MsgID: uint32(i),
			FirstByte: 0, LastByte: 1, Rule: fmt.Sprintf("ulbits(lrel, 0, 16) * %d + %d", i%13+1, i%29)}
	}
	return rel, []engine.OpDesc{engine.Interpret(ts)}
}

// BenchmarkClusterStage round-trips the interpretation stage over a
// loopback cluster with the v3 protocol. Bytes on the wire per task are
// reported as a metric; stage shipping is amortized across iterations
// (executor pipelines are cached per connection).
func benchmarkClusterStage(b *testing.B, compress bool) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrs, stop, err := StartLocalCluster(ctx, 2)
	if err != nil {
		b.Fatal(err)
	}
	defer stop()
	drv := &Driver{Addrs: addrs, SlotsPerExecutor: 2, Compress: compress}
	rel, ops := benchStage()
	var bytesOnWire int64
	var tasks int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := drv.RunStage(ctx, rel, ops)
		if err != nil {
			b.Fatal(err)
		}
		bytesOnWire += st.BytesSent + st.BytesRecv
		tasks += st.Tasks
	}
	b.StopTimer()
	if tasks > 0 {
		b.ReportMetric(float64(bytesOnWire)/float64(tasks), "wire-B/task")
	}
}

func BenchmarkClusterStage(b *testing.B)           { benchmarkClusterStage(b, false) }
func BenchmarkClusterStageCompressed(b *testing.B) { benchmarkClusterStage(b, true) }

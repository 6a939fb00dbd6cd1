package engine

import (
	"context"
	"fmt"
	"testing"

	"ivnt/internal/relation"
	"ivnt/internal/rules"
)

// BenchmarkInterpretStage measures an interpretation stage (OpInterpret
// over a 256-tuple table) on the local executor — the per-partition
// work a cluster task performs, and the stage the wire benchmark ships.
func BenchmarkInterpretStage(b *testing.B) {
	const nRows, nParts, nTable = 20000, 16, 256
	rows := make([]relation.Row, nRows)
	for i := range rows {
		rows[i] = relation.Row{
			relation.Float(float64(i) * 0.01),
			relation.Str("FC"),
			relation.Int(int64(i % nTable)),
			relation.Bytes([]byte{byte(i), byte(i >> 8)}),
		}
	}
	rel := relation.FromRows(traceSchema(), rows).Repartition(nParts)
	ts := make([]rules.Translation, nTable)
	for i := range ts {
		ts[i] = rules.Translation{SID: fmt.Sprintf("s%d", i), Channel: "FC", MsgID: uint32(i),
			FirstByte: 0, LastByte: 1, Rule: fmt.Sprintf("ulbits(lrel, 0, 16) * %d + %d", i%13+1, i%29)}
	}
	ops := []OpDesc{Interpret(ts)}
	exec := NewLocal(0)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := exec.RunStage(ctx, rel, ops); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(nRows*b.N)/b.Elapsed().Seconds(), "rows/s")
}

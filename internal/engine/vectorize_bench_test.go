package engine

import (
	"sort"
	"testing"

	"ivnt/internal/relation"
)

// Micro-benchmarks of the batch kernels on the fused
// Filter→Project→AddColumn workload and the broadcast join.
// cmd/benchmark -exp pipeline records the same kinds of workloads into
// the "pipeline" section of BENCH_engine.json.

func benchPipeline(b *testing.B, ops []OpDesc) *StagePipeline {
	b.Helper()
	pipe, err := NewStagePipeline(vecTestSchema(), ops)
	if err != nil {
		b.Fatal(err)
	}
	return pipe
}

func fusedBenchOps() []OpDesc {
	return []OpDesc{
		Filter("mid != 2 && byteat(l, 0) < 6"),
		Project("t", "mid", "l", "v"),
		AddColumn("b0", relation.KindInt, "byteat(l, 0)"),
		AddColumn("x", relation.KindFloat, "coalesce(v, 0.0) * 0.5 + b0"),
	}
}

func BenchmarkFusedPipelineVec(b *testing.B) {
	pipe := benchPipeline(b, fusedBenchOps())
	part := vecTestRows(8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipe.Apply(part); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBroadcastJoinVec(b *testing.B) {
	pipe := benchPipeline(b, []OpDesc{BroadcastJoin(vecJoinTable(), []string{"mid"}, []string{"rmid"})})
	part := vecTestRows(8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipe.Apply(part); err != nil {
			b.Fatal(err)
		}
	}
}

// naiveSortLess is the pre-optimization comparator shape: the
// per-column loop lived inside the sort.SliceStable closure, paying
// the colIdx range setup on every comparison.
func naiveSortLess(cp []relation.Row, colIdx []int) func(a, b int) bool {
	return func(a, b int) bool {
		for _, ci := range colIdx {
			if c := cp[a][ci].Compare(cp[b][ci]); c != 0 {
				return c < 0
			}
		}
		return false
	}
}

func BenchmarkSortWithinNaive(b *testing.B) {
	part := vecTestRows(8192)
	colIdx := []int{2, 0} // mid, t
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp := make([]relation.Row, len(part))
		copy(cp, part)
		sort.SliceStable(cp, naiveSortLess(cp, colIdx))
	}
}

func BenchmarkSortWithinCompiled(b *testing.B) {
	part := vecTestRows(8192)
	less := compileComparator([]int{2, 0})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp := make([]relation.Row, len(part))
		copy(cp, part)
		sort.SliceStable(cp, less(cp))
	}
}

package engine

// Exports for the external engine_test package. Its tests hold
// pipelines against internal/oracle, which imports engine, so they
// cannot live in this package.

var (
	VecTestSchema = vecTestSchema
	VecPipelines  = vecPipelines
	VecTestRows   = vecTestRows
	RLETestRows   = rleTestRows
	RowsBitEqual  = rowsBitEqual
)

const BatchSize = batchSize

// FusedFilterSkips counts the fused filter steps of p's plan and how
// many of them may run-skip (non-nil skipCols).
func FusedFilterSkips(p *StagePipeline) (filters, skippable int) {
	for _, seg := range p.vec {
		if seg.fused == nil {
			continue
		}
		for _, st := range seg.fused.steps {
			if st.dst < 0 {
				filters++
				if st.skipCols != nil {
					skippable++
				}
			}
		}
	}
	return filters, skippable
}

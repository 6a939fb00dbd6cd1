package engine

import (
	"testing"

	"ivnt/internal/relation"
)

// rleTestRows builds a partition shaped like a decoded low-cardinality
// trace: every column piecewise-constant in long runs, with a null run
// in v.
func rleTestRows(n int) []relation.Row {
	rows := make([]relation.Row, n)
	for i := range rows {
		v := relation.Float(float64((i / 96) % 3))
		if (i/48)%5 == 4 {
			v = relation.Null()
		}
		rows[i] = relation.Row{
			relation.Float(float64(i) * 0.01),
			relation.Str([]string{"drive", "park"}[(i/128)%2]),
			relation.Int(int64((i / 64) % 4)),
			relation.Bytes([]byte{byte((i / 32) % 8)}),
			v,
		}
	}
	return rows
}

// TestSkipColumnsPlan pins the planner side: an input-only filter gets
// exactly the columns it reads, a window filter never fuses at all (and
// so never reaches skipColumns with window code).
func TestSkipColumnsPlan(t *testing.T) {
	sch := vecTestSchema()
	pipe, err := NewStagePipeline(sch, []OpDesc{Filter("mid != 2 && bid == 'drive'")})
	if err != nil {
		t.Fatal(err)
	}
	if len(pipe.vec) != 1 || pipe.vec[0].fused == nil {
		t.Fatal("filter did not fuse")
	}
	got := pipe.vec[0].fused.steps[0].skipCols
	// Columns bid=1, mid=2 in schema order.
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("skipCols = %v, want [1 2]", got)
	}
}

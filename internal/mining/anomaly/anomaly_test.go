package anomaly

import (
	"reflect"
	"strings"
	"testing"

	"ivnt/internal/staterep"
)

func table(signals []string, rows [][]string) *staterep.Table {
	tb := &staterep.Table{Signals: signals}
	for i, r := range rows {
		tb.Times = append(tb.Times, float64(i))
		tb.Cells = append(tb.Cells, r)
	}
	return tb
}

func scenario() *staterep.Table {
	rows := [][]string{}
	for i := 0; i < 50; i++ {
		rows = append(rows, []string{"(high,steady)", "off"})
	}
	rows = append(rows, []string{"outlier v=800", "off"}) // row 50
	for i := 0; i < 49; i++ {
		rows = append(rows, []string{"(high,steady)", "on"})
	}
	return table([]string{"speed", "light"}, rows)
}

func TestDetectRanksOutlierFirst(t *testing.T) {
	as := Detect(scenario(), 5)
	if len(as) != 5 {
		t.Fatalf("anomalies = %d", len(as))
	}
	top := as[0]
	if top.Row != 50 {
		t.Fatalf("top anomaly row = %d, want 50 (%+v)", top.Row, top)
	}
	if top.Culprit != "speed" || top.CulpritValue != "outlier v=800" {
		t.Fatalf("culprit = %s=%s", top.Culprit, top.CulpritValue)
	}
	if top.Score <= as[1].Score {
		t.Fatalf("scores not descending: %v then %v", top.Score, as[1].Score)
	}
}

func TestDetectSkipsUnknown(t *testing.T) {
	tb := table([]string{"a"}, [][]string{
		{staterep.Unknown}, {"x"}, {"x"},
	})
	as := Detect(tb, 3)
	if as[0].Culprit == "" && as[0].Row != 0 {
		t.Fatalf("unexpected ranking: %+v", as)
	}
	// The unknown-only row scores 0.
	var unknownScore float64 = -1
	for _, a := range as {
		if a.Row == 0 {
			unknownScore = a.Score
		}
	}
	if unknownScore != 0 {
		t.Fatalf("unknown row score = %v, want 0", unknownScore)
	}
}

func TestDetectEdgeCases(t *testing.T) {
	if as := Detect(&staterep.Table{}, 5); as != nil {
		t.Fatal("empty table must yield nil")
	}
	if as := Detect(scenario(), 0); as != nil {
		t.Fatal("topK 0 must yield nil")
	}
	as := Detect(scenario(), 1000)
	if len(as) != 100 {
		t.Fatalf("topK beyond rows = %d", len(as))
	}
}

func TestDetectStateIsReturnedRow(t *testing.T) {
	tb := scenario()
	tb.Cells[7][1] = staterep.Unknown
	for _, k := range []int{1, 5, 100, 1000} {
		for _, a := range Detect(tb, k) {
			if want := tb.Row(a.Row); !reflect.DeepEqual(a.State, want) {
				t.Fatalf("topK %d, row %d: State = %v, want %v", k, a.Row, a.State, want)
			}
		}
	}
}

func TestToExtension(t *testing.T) {
	as := Detect(scenario(), 1)
	ext, err := as[0].ToExtension()
	if err != nil {
		t.Fatal(err)
	}
	if ext.WID != "anomaly.speed" || ext.SID != "speed" {
		t.Fatalf("extension = %+v", ext)
	}
	if !strings.Contains(ext.Expr, "outlier v=800") {
		t.Fatalf("expr = %q", ext.Expr)
	}
	// Extension must be valid against the sequence schema.
	if err := ext.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Anomaly{}
	if _, err := bad.ToExtension(); err == nil {
		t.Fatal("anomaly without culprit must fail")
	}
}

func TestReport(t *testing.T) {
	as := Detect(scenario(), 3)
	rep := Report(as)
	if !strings.Contains(rep, "1.") || !strings.Contains(rep, "culprit=speed=outlier v=800") {
		t.Fatalf("report:\n%s", rep)
	}
}

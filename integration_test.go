package ivnt

// End-to-end integration tests across module boundaries: trace files on
// disk → distributed extraction → result store → data mining — the
// complete Fig. 1 workflow, including the DBC documentation path.

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ivnt/internal/cluster"
	"ivnt/internal/core"
	"ivnt/internal/engine"
	"ivnt/internal/gen"
	"ivnt/internal/inhouse"
	"ivnt/internal/mining/anomaly"
	"ivnt/internal/mining/assoc"
	"ivnt/internal/mining/transition"
	"ivnt/internal/protocol/dbc"
	"ivnt/internal/rules"
	"ivnt/internal/trace"
)

func TestFullWorkflowFilesToMining(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	// 1. Record a journey to disk (the on-board logger of Fig. 1).
	dataset := gen.Build(gen.SYN)
	journey := dataset.Generate(15000)
	tracePath := filepath.Join(dir, "journey.ivtr")
	if err := trace.WriteFile(tracePath, journey); err != nil {
		t.Fatal(err)
	}
	catPath := filepath.Join(dir, "catalog.json")
	if err := rules.SaveCatalog(catPath, dataset.Catalog); err != nil {
		t.Fatal(err)
	}
	cfgPath := filepath.Join(dir, "domain.json")
	if err := rules.SaveConfig(cfgPath, dataset.DefaultConfig()); err != nil {
		t.Fatal(err)
	}

	// 2. Off-board: load everything back and run the pipeline.
	loaded, err := trace.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	catalog, err := rules.LoadCatalog(catPath)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := rules.LoadConfig(cfgPath)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := core.New(catalog, cfg, engine.NewLocal(0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := fw.RunTrace(ctx, loaded)
	if err != nil {
		t.Fatal(err)
	}
	if res.State.NumRows() == 0 {
		t.Fatal("empty state representation")
	}

	// 3. Seal into the result database and read back.
	if _, err := core.SealResult(filepath.Join(dir, "results"), cfg.Name, res); err != nil {
		t.Fatal(err)
	}
	stored, err := core.OpenStored(filepath.Join(dir, "results"), cfg.Name)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := stored.State(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != res.State.NumRows() {
		t.Fatalf("stored states = %d, want %d", tb.NumRows(), res.State.NumRows())
	}

	// 4. Mine the stored representation with all three applications.
	if g, err := transition.Build(tb); err != nil || g.NumStates() == 0 {
		t.Fatalf("transition graph: %v (%d states)", err, g.NumStates())
	}
	_ = assoc.Mine(tb, assoc.Options{MinSupport: 0.05, MinConfidence: 0.8, MaxItems: 2})
	as := anomaly.Detect(tb, 3)
	if len(as) != 3 {
		t.Fatalf("anomalies = %d", len(as))
	}
}

func TestDBCWorkflowMatchesJSONCatalog(t *testing.T) {
	// The same physical layout documented twice — once as a JSON
	// catalog, once as a DBC — must extract identical values.
	const dbcText = `VERSION "x"
BO_ 3 Wiper: 4 BCM
 SG_ wpos : 7|16@0+ (0.5,0) [0|100] "deg" IC
 SG_ wvel : 23|16@0+ (1,0) [0|10] "" IC
`
	db, err := dbc.Parse(strings.NewReader(dbcText))
	if err != nil {
		t.Fatal(err)
	}
	fromDBC, err := db.ToCatalog("FC")
	if err != nil {
		t.Fatal(err)
	}
	manual := &rules.Catalog{Translations: []rules.Translation{
		{SID: "wpos", Channel: "FC", MsgID: 3, FirstByte: 0, LastByte: 1,
			Rule: "0.5 * ube(lrel, 0, 2)", Class: rules.ClassNumeric},
		{SID: "wvel", Channel: "FC", MsgID: 3, FirstByte: 2, LastByte: 3,
			Rule: "ube(lrel, 0, 2)", Class: rules.ClassNumeric},
	}}

	msg, _ := db.Message(3)
	tr := &trace.Trace{}
	for i := 0; i < 50; i++ {
		f, err := msg.Frame(map[string]float64{"wpos": float64(i % 90), "wvel": float64(i % 3)})
		if err != nil {
			t.Fatal(err)
		}
		tr.Append(trace.ByteTuple{T: float64(i) * 0.1, Channel: "FC", MsgID: 3,
			Payload: f.Data, Info: trace.MsgInfo{Protocol: trace.ProtoCAN, DLC: f.DLC()}})
	}

	cfg := &rules.DomainConfig{Name: "w", SIDs: []string{"wpos", "wvel"}}
	run := func(cat *rules.Catalog) []string {
		fw, err := core.New(cat, cfg, engine.NewLocal(1))
		if err != nil {
			t.Fatal(err)
		}
		res, err := fw.RunTrace(context.Background(), tr)
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]string, res.State.NumRows())
		for i := range keys {
			keys[i] = res.State.StateKey(i)
		}
		return keys
	}
	a, b := run(fromDBC), run(manual)
	if len(a) != len(b) {
		t.Fatalf("state counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("state %d differs between DBC and JSON catalogs", i)
		}
	}
}

func TestClusterAndBaselineAgreeOnFleet(t *testing.T) {
	// Three-way agreement on extracted instance counts: local engine,
	// TCP cluster, and the sequential in-house tool.
	ctx := context.Background()
	dataset := gen.Build(gen.STA)
	journey := dataset.Generate(8000)
	sids := dataset.SelectSIDs(7)
	cfg := &rules.DomainConfig{Name: "sta7", SIDs: sids}

	addrs, stop, err := cluster.StartLocalCluster(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	count := func(exec engine.Executor) int {
		fw, err := core.New(dataset.Catalog, cfg, exec)
		if err != nil {
			t.Fatal(err)
		}
		_, exStats, _, err := fw.ExtractAndReduce(ctx, journey.ToRelation(6))
		if err != nil {
			t.Fatal(err)
		}
		return exStats.RowsOut
	}
	localN := count(engine.NewLocal(2))
	clusterN := count(&cluster.Driver{Addrs: addrs})

	tool, err := inhouse.New(dataset.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	if err := tool.Ingest(journey); err != nil {
		t.Fatal(err)
	}
	extracted, err := tool.Extract(sids...)
	if err != nil {
		t.Fatal(err)
	}
	inhouseN := 0
	for _, inst := range extracted {
		inhouseN += len(inst)
	}

	if localN != clusterN || localN != inhouseN {
		t.Fatalf("extraction counts disagree: local=%d cluster=%d inhouse=%d",
			localN, clusterN, inhouseN)
	}
}

func TestTraceCSVInterop(t *testing.T) {
	// The CSV trace form must survive a full round trip through disk
	// and still drive the pipeline.
	dataset := gen.Build(gen.SYN)
	journey := dataset.Generate(2000)
	dir := t.TempDir()
	path := filepath.Join(dir, "journey.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteCSV(f, journey); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	g, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	back, err := trace.ReadCSV(g)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := core.New(dataset.Catalog, dataset.DefaultConfig(), engine.NewLocal(0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := fw.RunTrace(context.Background(), back)
	if err != nil {
		t.Fatal(err)
	}
	if res.State.NumRows() == 0 {
		t.Fatal("pipeline produced nothing from CSV round trip")
	}
}

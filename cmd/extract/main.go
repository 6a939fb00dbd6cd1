// Command extract runs the full preprocessing pipeline (Algorithm 1) on
// a recorded trace under a domain configuration and writes the state
// representation — the per-domain workflow of Fig. 1.
//
//	extract -trace syn.ivtr -catalog syn-catalog.json -config syn-domain.json -o state.txt
//	extract -trace j.ivtr -dbc body.dbc -channel FC -config dom.json  # DBC documentation
//	extract ... -cluster host1:7077,host2:7077   # distributed execution
//	extract ... -store results/                  # seal into the result database
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"ivnt/internal/cluster"
	"ivnt/internal/core"
	"ivnt/internal/engine"
	"ivnt/internal/protocol/dbc"
	"ivnt/internal/rules"
	"ivnt/internal/segstore"
	"ivnt/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("extract: ")
	var (
		tracePath = flag.String("trace", "", "input trace file (IVTR); required")
		catPath   = flag.String("catalog", "", "rules catalog (JSON); this or -dbc required")
		dbcPath   = flag.String("dbc", "", "CAN database (DBC) to derive the catalog from")
		dbcChan   = flag.String("channel", "FC", "channel (b_id) the DBC messages occur on")
		cfgPath   = flag.String("config", "", "domain configuration (JSON); required")
		storeDir  = flag.String("store", "", "seal the domain's reduced, signal and extension sequences as segment stores under this result-store directory (docs/STORAGE.md)")
		out       = flag.String("o", "", "state representation output file (default stdout)")
		workers   = flag.Int("workers", 0, "local executor workers (0 = all cores)")
		clusterFl = flag.String("cluster", "", "comma-separated executor addresses; empty = local execution")
		maxRows   = flag.Int("maxrows", 0, "truncate rendered state table (0 = all)")
		noPresel  = flag.Bool("no-preselect", false, "disable line-3 preselection (interpret full catalog)")
	)
	flag.Parse()
	if *tracePath == "" || (*catPath == "" && *dbcPath == "") || *cfgPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	tr, err := trace.ReadFile(*tracePath)
	if err != nil {
		log.Fatal(err)
	}
	var catalog *rules.Catalog
	if *dbcPath != "" {
		db, err := dbc.ParseFile(*dbcPath)
		if err != nil {
			log.Fatal(err)
		}
		if catalog, err = db.ToCatalog(*dbcChan); err != nil {
			log.Fatal(err)
		}
	} else {
		if catalog, err = rules.LoadCatalog(*catPath); err != nil {
			log.Fatal(err)
		}
	}
	cfg, err := rules.LoadConfig(*cfgPath)
	if err != nil {
		log.Fatal(err)
	}

	var exec engine.Executor = engine.NewLocal(*workers)
	if *clusterFl != "" {
		exec = &cluster.Driver{Addrs: strings.Split(*clusterFl, ","), SlotsPerExecutor: 2}
	}
	fw, err := core.New(catalog, cfg, exec)
	if err != nil {
		log.Fatal(err)
	}
	if *noPresel {
		fw.Interp.Preselect = false
		fw.Interp.FullCatalog = catalog.Translations
	}

	res, err := fw.RunTrace(context.Background(), tr)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("executor:        %s\n", exec.Name())
	fmt.Printf("trace rows:      %d\n", tr.Len())
	fmt.Printf("K_s rows:        %d\n", res.KsRows)
	fmt.Printf("reduced rows:    %d (ratio %.3f)\n", res.ReduceStats.RowsOut, res.ReductionRatio())
	fmt.Printf("states:          %d\n", res.State.NumRows())
	fmt.Println("signals:")
	for _, s := range res.Signals {
		fmt.Printf("  %s\n", s.Summary())
	}
	for _, red := range res.Reduced {
		if len(red.Gateway.Corresponding) > 0 {
			fmt.Printf("gateway: %s processed on %s for %s\n",
				red.SID, red.Gateway.RepChannel, strings.Join(red.Gateway.Corresponding, ","))
		}
		if len(red.Gateway.Mismatched) > 0 {
			fmt.Printf("gateway MISMATCH: %s differs on %s (potential gateway fault)\n",
				red.SID, strings.Join(red.Gateway.Mismatched, ","))
		}
	}

	if *storeDir != "" {
		st, err := core.SealResult(*storeDir, cfg.Name, res)
		if err != nil {
			log.Fatal(err)
		}
		for _, seg := range []*segstore.Store{st.Reduced, st.Signals, st.Extensions} {
			if seg != nil {
				fmt.Printf("%d segments (%d rows) sealed under %s\n", seg.NumSegments(), seg.Rows(), seg.Dir())
			}
		}
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
		w = f
	} else {
		fmt.Println()
	}
	if err := res.State.Render(w, *maxRows); err != nil {
		log.Fatal(err)
	}
	if *out != "" {
		fmt.Printf("state representation written to %s\n", *out)
	}
}

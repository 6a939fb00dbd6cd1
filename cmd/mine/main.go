// Command mine runs the data-mining applications of Sec. 4.4 over a
// domain that extract -store sealed: association rules, transition
// graphs (with rare-transition detection and DOT export) and anomaly
// ranking over the state representation rebuilt from the stored signal
// and extension sequences, and motif mining over one stored signal.
//
//	mine -store results -domain SYN -app rules
//	mine -store results -domain SYN -app graph -dot graph.dot
//	mine -store results -domain SYN -app anomaly -top 10
//	mine -store results -domain SYN -app motif -signal SYN.num00
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"ivnt/internal/core"
	"ivnt/internal/mining/anomaly"
	"ivnt/internal/mining/assoc"
	"ivnt/internal/mining/motif"
	"ivnt/internal/mining/transition"
	"ivnt/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mine: ")
	var (
		storeDir  = flag.String("store", "", "result-store directory written by extract -store; required")
		domain    = flag.String("domain", "", "stored domain name; required (list with -domain '')")
		app       = flag.String("app", "rules", "application: rules, graph, anomaly or motif")
		signal    = flag.String("signal", "", "motif: which stored signal sequence to mine")
		motifLen  = flag.Int("motif-len", 3, "motif: pattern length")
		minSup    = flag.Float64("minsup", 0.1, "rules: minimum support")
		minConf   = flag.Float64("minconf", 0.8, "rules: minimum confidence")
		maxItems  = flag.Int("maxitems", 3, "rules: maximum item-set size")
		top       = flag.Int("top", 10, "rules/anomaly: how many results to print")
		rareN     = flag.Int("rare-count", 1, "graph: rare transition max count")
		rareP     = flag.Float64("rare-prob", 0.5, "graph: rare transition max probability")
		dotOut    = flag.String("dot", "", "graph: write Graphviz DOT to this file")
		debugAddr = flag.String("debug-addr", "", "serve /metrics and /debug/pprof on this address (e.g. localhost:6062)")
	)
	flag.Parse()
	if *storeDir == "" {
		flag.Usage()
		os.Exit(2)
	}
	dbg, err := telemetry.StartDebugServer(*debugAddr, telemetry.NewDebugMux(telemetry.Default(), nil, nil))
	if err != nil {
		log.Fatal(err)
	}
	if dbg != nil {
		defer dbg.Close()
		log.Printf("debug server on http://%s", dbg.Addr())
	}
	if *domain == "" {
		domains, err := core.StoredDomains(*storeDir)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("stored domains:")
		for _, d := range domains {
			st, err := core.OpenStored(*storeDir, d)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-16s %3d signals, %7d reduced rows\n", d, st.Signals.NumSegments(), st.Reduced.Rows())
		}
		return
	}

	ctx := context.Background()
	st, err := core.OpenStored(*storeDir, *domain)
	if err != nil {
		log.Fatal(err)
	}
	tb, err := st.State(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("domain %s: %d states x %d signals\n\n", *domain, tb.NumRows(), len(tb.Signals))

	switch *app {
	case "rules":
		rules := assoc.Mine(tb, assoc.Options{MinSupport: *minSup, MinConfidence: *minConf, MaxItems: *maxItems})
		n := *top
		if len(rules) < n {
			n = len(rules)
		}
		for _, r := range rules[:n] {
			fmt.Println(r)
		}
		fmt.Printf("(%d rules total)\n", len(rules))

	case "graph":
		g, err := transition.Build(tb)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%d states, %d transitions\n", g.NumStates(), g.Transitions)
		rare := g.Rare(*rareN, *rareP)
		fmt.Printf("%d rare transitions (count <= %d, prob <= %.2f):\n", len(rare), *rareN, *rareP)
		n := *top
		if len(rare) < n {
			n = len(rare)
		}
		for _, tr := range rare[:n] {
			fmt.Printf("  [%dx p=%.3f] %.50s -> %.50s\n", tr.Count, tr.Prob, tr.FromLabel, tr.ToLabel)
		}
		if *dotOut != "" {
			f, err := os.Create(*dotOut)
			if err != nil {
				log.Fatal(err)
			}
			if err := g.WriteDOT(f, *rareN); err != nil {
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("graph written to %s\n", *dotOut)
		}

	case "anomaly":
		as := anomaly.Detect(tb, *top)
		fmt.Print(anomaly.Report(as))
		if len(as) > 0 {
			if ext, err := as[0].ToExtension(); err == nil {
				fmt.Printf("\nsuggested extension for further runs: %s on %s: %s\n", ext.WID, ext.SID, ext.Expr)
			}
		}

	case "motif":
		if *signal == "" {
			log.Fatal("motif mining needs -signal")
		}
		seq, err := st.Sequence(ctx, *signal)
		if err != nil {
			log.Fatal(err)
		}
		motifs, err := motif.Mine(seq, motif.Options{Length: *motifLen, MinSupport: *minSup, TopK: *top})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("frequent motifs of %s (length %d):\n", *signal, *motifLen)
		for _, m := range motifs {
			fmt.Println(" ", m)
		}
		discords, err := motif.Discords(seq, motif.Options{Length: *motifLen}, 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%d discord windows (unique patterns, candidate errors)\n", len(discords))
		n := *top
		if len(discords) < n {
			n = len(discords)
		}
		for _, d := range discords[:n] {
			fmt.Println(" ", d)
		}

	default:
		fmt.Fprintf(os.Stderr, "unknown app %q\n", *app)
		flag.Usage()
		os.Exit(2)
	}
}

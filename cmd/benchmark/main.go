// Command benchmark regenerates the paper's evaluation: Table 5,
// Fig. 5, Table 6 and the DESIGN.md ablations, printing paper-shaped
// tables. Scale factors shrink the paper's row counts to local-machine
// budgets while preserving shape (see DESIGN.md).
//
//	benchmark -exp all
//	benchmark -exp table6 -scale 5e-5
//	benchmark -exp fig5 -cluster host1:7077,host2:7077
package main

import (
	"compress/flate"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"ivnt/internal/bench"
	"ivnt/internal/cluster"
	"ivnt/internal/engine"
	"ivnt/internal/memgov"
	"ivnt/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchmark: ")
	var (
		exp         = flag.String("exp", "all", "experiment: table5, fig5, table6, preselect, scaling, reduction, storage, wire, pipeline, spill, shuffle, scan, serve or all")
		scale       = flag.Float64("scale", 0, "scale factor vs paper row counts (0 = per-experiment default)")
		workers     = flag.Int("workers", 0, "local executor workers (0 = all cores)")
		steps       = flag.Int("steps", 8, "fig5: sweep steps per data set")
		clusterFl   = flag.String("cluster", "", "table6: comma-separated executor addresses for the proposed side")
		taskTimeout = flag.Duration("task-timeout", 0, "cluster: per-task deadline (0 = driver default, negative disables)")
		specFactor  = flag.Float64("speculation", 0, "cluster: straggler speculation factor k (0 = driver default, negative disables)")
		wireRows    = flag.Int("wire-rows", 0, "wire: rows in the streamed relation (0 = default)")
		pipeRows    = flag.Int("pipeline-rows", 0, "pipeline: rows in the measured partition (0 = default)")
		spillRows   = flag.Int("spill-rows", 0, "spill: rows in the measured partition (0 = default)")
		spillBudget = flag.String("spill-budget", "", "spill: memory budget for the governed run (e.g. 1MiB; empty = footprint/4)")
		shufRows    = flag.Int("shuffle-rows", 0, "shuffle: probe-side rows (0 = default)")
		shufParts   = flag.Int("shuffle-parts", 0, "shuffle: exchange fan-out (0 = 2x executors)")
		shufKeyCard = flag.Int("shuffle-keycard", 0, "shuffle: join-key cardinality = build-side rows (0 = default)")
		scanSegs    = flag.Int("scan-segments", 0, "scan: segments in the store (0 = default)")
		scanRows    = flag.Int("scan-rows", 0, "scan: rows per segment (0 = default)")
		serveSegs   = flag.Int("serve-segments", 0, "serve: segments in the store (0 = default)")
		serveRows   = flag.Int("serve-rows", 0, "serve: rows per segment (0 = default)")
		serveIters  = flag.Int("serve-iters", 0, "serve: requests per mode (0 = default)")
		out         = flag.String("out", "", "wire, pipeline, spill, shuffle, scan, serve: also merge each experiment's results into its section of this JSON file (e.g. BENCH_engine.json; wire also writes \"codec\")")
		traceOut    = flag.String("trace-out", "", "write a Chrome trace_event JSON (load in Perfetto) of cluster task spans to this file")
		debugAddr   = flag.String("debug-addr", "", "serve /metrics, /tasks, /trace and /debug/pprof on this address (e.g. localhost:6060)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file (go tool pprof)")
		memProfile  = flag.String("memprofile", "", "write a heap profile at exit to this file (go tool pprof)")
	)
	flag.Parse()
	ctx := context.Background()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			log.Printf("wrote %s", *cpuProfile)
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Printf("memprofile: %v", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Printf("memprofile: %v", err)
				return
			}
			log.Printf("wrote %s", *memProfile)
		}()
	}

	var tracer *telemetry.Tracer
	if *traceOut != "" || *debugAddr != "" {
		tracer = telemetry.NewTracer()
	}
	tasks := telemetry.NewTaskTable()
	dbg, err := telemetry.StartDebugServer(*debugAddr, telemetry.NewDebugMux(telemetry.Default(), tracer, tasks))
	if err != nil {
		log.Fatal(err)
	}
	if dbg != nil {
		defer dbg.Close()
		log.Printf("debug server on http://%s", dbg.Addr())
	}
	if *traceOut != "" {
		defer func() {
			if err := writeTrace(*traceOut, tracer); err != nil {
				log.Printf("trace-out: %v", err)
			}
		}()
	}

	run := func(name string) {
		switch name {
		case "table5":
			s := *scale
			if s == 0 {
				s = bench.DefaultScale
			}
			fmt.Print(bench.FormatTable5(bench.Table5(s), s))
		case "fig5":
			points, err := bench.Fig5(ctx, bench.Fig5Options{Scale: *scale, Steps: *steps, Workers: *workers})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Print(bench.FormatFig5(points))
			fmt.Println("log-log slopes (paper claims O(n), slope ≈ 1):")
			slopes := bench.Fig5Slope(points)
			for _, ds := range []string{"SYN", "LIG", "STA"} {
				if s, ok := slopes[ds]; ok {
					fmt.Printf("  %-5s %.2f\n", ds, s)
				}
			}
		case "table6":
			opts := bench.Table6Options{Scale: *scale, Workers: *workers}
			if *clusterFl != "" {
				opts.Exec = &cluster.Driver{
					Addrs:             strings.Split(*clusterFl, ","),
					SlotsPerExecutor:  2,
					TaskTimeout:       *taskTimeout,
					SpeculationFactor: *specFactor,
					Tracer:            tracer,
					Tasks:             tasks,
				}
			} else {
				opts.Exec = engine.NewLocal(*workers)
			}
			rows, err := bench.Table6(ctx, opts)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Print(bench.FormatTable6(rows, opts))
			fmt.Printf("(proposed executor: %s)\n", opts.Exec.Name())
		case "preselect":
			r, err := bench.AblationPreselect(ctx, *scale, *workers)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Print(bench.FormatPreselect(r))
		case "scaling":
			points, err := bench.AblationScaling(ctx, *scale, 0)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Print(bench.FormatScaling(points))
		case "reduction":
			rows, err := bench.AblationReduction(ctx, *scale, *workers)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Print(bench.FormatReduction(rows))
		case "wire":
			if err := runWire(ctx, *wireRows, *out, tracer, tasks); err != nil {
				log.Fatal(err)
			}
		case "pipeline":
			results, err := bench.Pipeline(bench.PipelineOptions{Rows: *pipeRows})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Print(bench.FormatPipeline(results))
			if err := writeJSONSections(*out, map[string]any{"pipeline": results}); err != nil {
				log.Fatal(err)
			}
		case "spill":
			opts := bench.SpillOptions{Rows: *spillRows}
			if *spillBudget != "" {
				b, err := memgov.ParseBytes(*spillBudget)
				if err != nil {
					log.Fatal(err)
				}
				opts.Budget = b
			}
			results, err := bench.Spill(opts)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Print(bench.FormatSpill(results))
			if err := writeJSONSections(*out, map[string]any{"spill": results}); err != nil {
				log.Fatal(err)
			}
		case "shuffle":
			results, err := bench.Shuffle(ctx, bench.ShuffleOptions{
				Rows: *shufRows, Parts: *shufParts, KeyCard: *shufKeyCard,
			})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Print(bench.FormatShuffle(results))
			if err := writeJSONSections(*out, map[string]any{"shuffle": results}); err != nil {
				log.Fatal(err)
			}
		case "scan":
			results, err := bench.Scan(ctx, bench.ScanOptions{
				Segments: *scanSegs, RowsPerSeg: *scanRows, Compress: true,
			})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Print(bench.FormatScan(results))
			if err := writeJSONSections(*out, map[string]any{"scan": results}); err != nil {
				log.Fatal(err)
			}
		case "serve":
			results, err := bench.Serve(ctx, bench.ServeOptions{
				Segments: *serveSegs, RowsPerSeg: *serveRows, Iters: *serveIters,
			})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Print(bench.FormatServe(results))
			if err := writeJSONSections(*out, map[string]any{"serve": results}); err != nil {
				log.Fatal(err)
			}
		case "storage":
			rows, err := bench.AblationStorage(*scale)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Print(bench.FormatStorage(rows))
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			flag.Usage()
			os.Exit(2)
		}
		fmt.Println()
	}

	if *exp == "all" {
		for _, name := range []string{"table5", "fig5", "table6", "preselect", "scaling", "reduction", "storage", "wire", "pipeline", "spill", "shuffle", "scan", "serve"} {
			run(name)
		}
		return
	}
	run(*exp)
}

// runWire measures protocol-v3 bytes per task against the simulated v2
// baseline, with compression off and on, and optionally writes the
// results (plus raw codec timings) as JSON. The codec sweep pins the
// DEFLATE-level trade-off behind the driver's BestSpeed default: level
// 0 (= flate.BestSpeed) against flate.BestCompression.
func runWire(ctx context.Context, rows int, outPath string, tracer *telemetry.Tracer, tasks *telemetry.TaskTable) error {
	var results []*bench.WireResult
	var codec []*bench.WireCodecResult
	for _, compress := range []bool{false, true} {
		opts := bench.WireOptions{Rows: rows, Compress: compress, Tracer: tracer, Tasks: tasks}
		r, err := bench.Wire(ctx, opts)
		if err != nil {
			return err
		}
		results = append(results, r)
	}
	for _, cfg := range []struct {
		compress bool
		level    int
	}{{false, 0}, {true, 0}, {true, flate.BestCompression}} {
		c, err := bench.WireCodec(bench.WireOptions{Rows: rows, Compress: cfg.compress, Level: cfg.level})
		if err != nil {
			return err
		}
		codec = append(codec, c)
	}
	fmt.Print(bench.FormatWire(results))
	for _, c := range codec {
		fmt.Printf("codec (compress=%v level=%d): %d rows/partition, encode %.0f ns/op, decode %.0f ns/op, %d B encoded\n",
			c.Compress, c.Level, c.RowsPerPartition, c.EncodeNsPerOp, c.DecodeNsPerOp, c.EncodedBytes)
	}
	return writeJSONSections(outPath, map[string]any{"wire": results, "codec": codec})
}

// writeJSONSections merges the given top-level sections into the JSON
// object at path (the -out file; empty writes nothing), preserving any
// other sections already present — so each experiment refreshes its
// part of BENCH_engine.json without clobbering the others' numbers.
func writeJSONSections(path string, sections map[string]any) error {
	if path == "" {
		return nil
	}
	doc := map[string]json.RawMessage{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &doc); err != nil {
			return fmt.Errorf("%s: existing content is not a JSON object: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	for name, v := range sections {
		blob, err := json.Marshal(v)
		if err != nil {
			return err
		}
		doc[name] = blob
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("(wrote %s)\n", path)
	return nil
}

// writeTrace exports every span recorded this run as a Chrome
// trace_event document, ready to load in Perfetto / chrome://tracing.
func writeTrace(path string, tracer *telemetry.Tracer) error {
	spans := tracer.Snapshot()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	log.Printf("wrote %s (%d spans)", path, len(spans))
	return nil
}

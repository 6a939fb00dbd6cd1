package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"

	"ivnt/internal/branch"
	"ivnt/internal/classify"
	"ivnt/internal/core"
	"ivnt/internal/engine"
	"ivnt/internal/extend"
	"ivnt/internal/interp"
	"ivnt/internal/reduce"
	"ivnt/internal/relation"
	"ivnt/internal/rules"
	"ivnt/internal/segstore"
	"ivnt/internal/staterep"
	"ivnt/internal/telemetry"
	"ivnt/internal/trace"
)

// passOut is what one pipeline pass leaves behind for the checks and
// for the later phases.
type passOut struct {
	digest      string
	reducedRows int
	sealedRows  int
	segments    int
	storeBytes  int64
	// states and motifSeqs (one per journey) feed the mining phase;
	// motifSID names the signal motif mining runs on.
	states    []*staterep.Table
	motifSeqs []*relation.Relation
	motifSID  string
	// rows holds the t/sid columns of every sealed row, for the served
	// queries' expected counts; filled only when asked for.
	rows *sealedRows
}

// layerCounts are the traced pass's counters that its outputs do not
// already carry.
type layerCounts struct {
	ksRows      int
	interpAlloc float64 // heap bytes allocated inside interp.Extract
}

// journeyOut is one journey's pipeline result in the shape both the
// framework run and the traced layer-by-layer run produce.
type journeyOut struct {
	state   *staterep.Table
	signals []*branch.Result
	reduced []reduce.Reduced
}

// newFramework parameterizes the pipeline as cmd/extract does: a local
// executor on every core.
func newFramework(f *fleet) (*core.Framework, error) {
	return core.New(f.catalog, f.config, engine.NewLocal(0))
}

// runPass is one untraced pass: the framework's fleet run, then every
// journey's reduced sequences sealed into a fresh segment store (one
// segment per journey and signal, as cmd/extract -store-dir does).
func runPass(ctx context.Context, fw *core.Framework, f *fleet, dir string) ([]journeyOut, *segstore.Store, error) {
	fr, err := fw.RunFleet(ctx, f.journeys)
	if err != nil {
		return nil, nil, err
	}
	st, err := openStore(dir)
	if err != nil {
		return nil, nil, err
	}
	outs := make([]journeyOut, len(fr.Journeys))
	for i, res := range fr.Journeys {
		outs[i] = journeyOut{state: res.State, signals: res.Signals, reduced: res.Reduced}
		for _, red := range res.Reduced {
			if err := seal(st, red); err != nil {
				return nil, nil, err
			}
		}
	}
	return outs, st, nil
}

func openStore(dir string) (*segstore.Store, error) {
	return segstore.Open(dir, trace.SignalSchema(), segstore.Options{Compress: true, Encodings: true})
}

func seal(st *segstore.Store, red reduce.Reduced) error {
	rows := red.Rel.Rows()
	if len(rows) == 0 {
		return nil
	}
	if err := st.AppendSegment(rows); err != nil {
		return fmt.Errorf("seal %s: %w", red.SID, err)
	}
	return nil
}

// tracedPass runs the same pipeline by calling each layer's public
// functions in core.Framework.Run's order, with one span around every
// call. Its output must equal the framework's, digest for digest.
func tracedPass(ctx context.Context, fw *core.Framework, f *fleet, dir string, pass *telemetry.Span, counts *layerCounts) ([]journeyOut, *segstore.Store, error) {
	exec := fw.Exec
	ucomb, err := fw.Catalog.Select(fw.Config.SIDs...)
	if err != nil {
		return nil, nil, err
	}
	opts := fw.Interp
	if !opts.Preselect && len(opts.FullCatalog) == 0 {
		opts.FullCatalog = fw.Catalog.Translations
	}
	parts := fw.Config.Partitions
	if parts <= 0 {
		parts = runtime.GOMAXPROCS(0) * 2
	}
	outs := make([]journeyOut, len(f.journeys))
	for ji, tr := range f.journeys {
		jsp := pass.Child("journey", telemetry.A("journey", ji))
		sp := jsp.Child("trace.to_relation")
		kb := tr.ToRelation(parts)
		sp.End()

		sp = jsp.Child("interp.extract")
		a0 := readRuntime()
		ks, exStats, err := interp.Extract(ctx, exec, kb, ucomb, opts)
		counts.interpAlloc += readRuntime().sub(a0).allocBytes
		counts.ksRows += exStats.RowsOut
		sp.End()
		if err != nil {
			return nil, nil, err
		}

		sp = jsp.Child("reduce.run")
		reduced, err := reduce.Run(ctx, exec, ks, fw.Config)
		sp.End()
		if err != nil {
			return nil, nil, err
		}

		signals, seqs, err := tracedBranches(ctx, fw, reduced, jsp)
		if err != nil {
			return nil, nil, err
		}

		sp = jsp.Child("staterep.build")
		state, err := staterep.Build(seqs...)
		sp.End()
		if err != nil {
			return nil, nil, err
		}
		outs[ji] = journeyOut{state: state, signals: signals, reduced: reduced}
		jsp.End()
	}
	sp := pass.Child("segstore.seal")
	defer sp.End()
	st, err := openStore(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, o := range outs {
		for _, red := range o.reduced {
			if err := seal(st, red); err != nil {
				return nil, nil, err
			}
		}
	}
	return outs, st, nil
}

// tracedBranches is core.Framework.Run's per-signal fan-out (branch
// processing and extensions on at most GOMAXPROCS goroutines), with a
// span per call.
func tracedBranches(ctx context.Context, fw *core.Framework, reduced []reduce.Reduced, parent *telemetry.Span) ([]*branch.Result, []*relation.Relation, error) {
	type sigOut struct {
		br  *branch.Result
		w   *relation.Relation
		err error
	}
	outs := make([]sigOut, len(reduced))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := range reduced {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			red := &reduced[i]
			var hint *rules.Translation
			if ts := fw.Catalog.Lookup(red.SID); len(ts) > 0 {
				hint = &ts[0]
			}
			sp := parent.Child("branch.process", telemetry.A("sid", red.SID))
			br, err := branch.Process(red.SID, red.Rel, hint, fw.Config)
			sp.End()
			if err != nil {
				outs[i] = sigOut{err: err}
				return
			}
			sp = parent.Child("extend.run", telemetry.A("sid", red.SID))
			w, err := extend.Run(ctx, fw.Exec, red.SID, red.Rel, fw.Config)
			sp.End()
			outs[i] = sigOut{br: br, w: w, err: err}
		}(i)
	}
	wg.Wait()
	var signals []*branch.Result
	var seqs []*relation.Relation
	var ext *relation.Relation
	for _, o := range outs {
		if o.err != nil {
			return nil, nil, o.err
		}
		signals = append(signals, o.br)
		seqs = append(seqs, o.br.Rel)
		if o.w == nil {
			continue
		}
		if ext == nil {
			ext = o.w
			continue
		}
		var err error
		if ext, err = ext.Concat(o.w); err != nil {
			return nil, nil, err
		}
	}
	if ext != nil {
		seqs = append(seqs, ext)
	}
	return signals, seqs, nil
}

// summarizePass computes the pass's checks and keeps what later phases
// read. The digest covers every journey's state table: row and signal
// counts and a hash of the rendered table.
func summarizePass(outs []journeyOut, st *segstore.Store, keepRows bool) (*passOut, error) {
	p := &passOut{segments: st.NumSegments(), sealedRows: st.Rows()}
	h := sha256.New()
	var tIdx, sidIdx int
	if keepRows {
		p.rows = &sealedRows{}
		sch := trace.SignalSchema()
		tIdx, sidIdx = sch.MustIndex(trace.ColT), sch.MustIndex(trace.ColSID)
	}
	for _, o := range outs {
		fmt.Fprintf(h, "%d states x %d signals\n", o.state.NumRows(), len(o.state.Signals))
		if err := o.state.Render(h, 0); err != nil {
			return nil, err
		}
		for _, red := range o.reduced {
			p.reducedRows += red.Rel.NumRows()
			if keepRows {
				p.rows.add(red.Rel.Rows(), tIdx, sidIdx)
			}
		}
		p.states = append(p.states, o.state)
		seq, sid := motifSignal(o.signals)
		p.motifSeqs = append(p.motifSeqs, seq)
		p.motifSID = sid
	}
	p.digest = fmt.Sprintf("%x", h.Sum(nil)[:12])
	var err error
	p.storeBytes, err = dirBytes(st.Dir())
	return p, err
}

// motifSignal picks the signal motif mining runs on: the first α
// (numeric) signal, as `mine -app motif -signal SYN.num00` would, or
// the first signal when the selection has no numeric one.
func motifSignal(signals []*branch.Result) (*relation.Relation, string) {
	for _, s := range signals {
		if s.Branch == classify.Alpha {
			return s.Rel, s.SID
		}
	}
	if len(signals) == 0 {
		return nil, ""
	}
	return signals[0].Rel, signals[0].SID
}

func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}

func passDir(root string, i int) string {
	return filepath.Join(root, "pass-"+strconv.Itoa(i))
}

package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"ivnt/internal/engine"
	"ivnt/internal/relation"
	"ivnt/internal/segstore"
	"ivnt/internal/staterep"
	"ivnt/internal/trace"
)

// The result database the proposed side writes its interpreted signals
// into (Sec. 5.1) and mining reads back (Table 6). One extraction of a
// domain is sealed as K_s-shaped segment stores, one segment per
// signal, under <dir>/<domain>/:
//
//	reduced/     the reduced sequences (what cmd/served queries)
//	signals/     the homogenized branch outputs
//	extensions/  the extension sequences W, one segment per w_id
//	             (absent when the domain defines none)
//
// The wide state table is not stored: State rebuilds it from signals/
// and extensions/.
const (
	reducedStore    = "reduced"
	signalsStore    = "signals"
	extensionsStore = "extensions"
)

// Stored is one domain's sealed extraction.
type Stored struct {
	Reduced *segstore.Store
	Signals *segstore.Store
	// Extensions is nil when the domain has no extension sequences.
	Extensions *segstore.Store
}

// checkDomain rejects a domain name that is not one plain path
// element: it names a directory under the store root, which SealResult
// deletes and rewrites.
func checkDomain(domain string) error {
	if domain == "" || domain == "." || domain == ".." || strings.ContainsAny(domain, `/\`) {
		return fmt.Errorf("core: domain name %q is not a plain directory name", domain)
	}
	return nil
}

// SealResult writes res as domain's extraction under dir, replacing any
// previous extraction of that domain, and returns the sealed stores.
func SealResult(dir, domain string, res *Result) (*Stored, error) {
	if err := checkDomain(domain); err != nil {
		return nil, err
	}
	root := filepath.Join(dir, domain)
	if err := os.RemoveAll(root); err != nil {
		return nil, err
	}
	reduced := make([]*relation.Relation, len(res.Reduced))
	for i, red := range res.Reduced {
		reduced[i] = red.Rel
	}
	signals := make([]*relation.Relation, len(res.Signals))
	for i, sig := range res.Signals {
		signals[i] = sig.Rel
	}
	var st Stored
	var err error
	if st.Reduced, err = sealSequences(filepath.Join(root, reducedStore), reduced); err != nil {
		return nil, err
	}
	if st.Signals, err = sealSequences(filepath.Join(root, signalsStore), signals); err != nil {
		return nil, err
	}
	if res.Extensions != nil {
		if st.Extensions, err = sealSequences(filepath.Join(root, extensionsStore), splitBySID(res.Extensions)); err != nil {
			return nil, err
		}
	}
	return &st, nil
}

// sealSequences seals each non-empty K_s-shaped sequence as one segment
// of a new store in dir. Segment-per-signal makes every segment's sid
// zone map a single value, so a pushed-down `sid == "..."` prunes all
// other signals without decoding a byte (see docs/STORAGE.md).
func sealSequences(dir string, seqs []*relation.Relation) (*segstore.Store, error) {
	schema := trace.SignalSchema()
	st, err := segstore.Open(dir, schema, segstore.Options{Compress: true, Encodings: true})
	if err != nil {
		return nil, err
	}
	for i, seq := range seqs {
		if !seq.Schema.Equal(schema) {
			return nil, fmt.Errorf("core: %s: sequence %d has schema %s, want %s", dir, i, seq.Schema, schema)
		}
		rows := seq.Rows()
		if len(rows) == 0 {
			continue
		}
		if err := st.AppendSegment(rows); err != nil {
			return nil, fmt.Errorf("core: %s: sequence %d: %w", dir, i, err)
		}
	}
	return st, nil
}

// splitBySID splits a K_s-shaped relation into one relation per signal
// id, in order of first appearance, keeping each signal's row order.
func splitBySID(rel *relation.Relation) []*relation.Relation {
	si := rel.Schema.Index(trace.ColSID)
	at := map[string]*relation.Relation{}
	var out []*relation.Relation
	for _, p := range rel.Partitions {
		for _, r := range p {
			sid := r[si].AsString()
			seq := at[sid]
			if seq == nil {
				seq = relation.New(rel.Schema)
				at[sid] = seq
				out = append(out, seq)
			}
			seq.Append(r)
		}
	}
	return out
}

// OpenStored reopens domain's extraction sealed under dir.
func OpenStored(dir, domain string) (*Stored, error) {
	if err := checkDomain(domain); err != nil {
		return nil, err
	}
	root := filepath.Join(dir, domain)
	var st Stored
	var err error
	if st.Reduced, err = openSequences(filepath.Join(root, reducedStore)); err != nil {
		return nil, err
	}
	if st.Signals, err = openSequences(filepath.Join(root, signalsStore)); err != nil {
		return nil, err
	}
	if st.Extensions, err = openSequences(filepath.Join(root, extensionsStore)); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	return &st, nil
}

// openSequences opens an existing K_s-shaped store; a missing directory
// is reported as such (segstore.Open would create it).
func openSequences(dir string) (*segstore.Store, error) {
	if _, err := os.Stat(dir); err != nil {
		return nil, err
	}
	return segstore.Open(dir, trace.SignalSchema(), segstore.Options{})
}

// StoredDomains lists the domains sealed under dir, sorted.
func StoredDomains(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, e.Name(), signalsStore)); err == nil {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

// State rebuilds the state representation from the stored signal and
// extension sequences. The argument order of staterep.Build — signals,
// then extensions — reproduces Result.State's column order.
func (s *Stored) State(ctx context.Context) (*staterep.Table, error) {
	signals, err := s.Signals.Scan(ctx, engine.Pushdown{})
	if err != nil {
		return nil, err
	}
	var ext *relation.Relation
	if s.Extensions != nil {
		if ext, err = s.Extensions.Scan(ctx, engine.Pushdown{}); err != nil {
			return nil, err
		}
	}
	return staterep.Build(signals, ext)
}

// Sequence returns one signal's stored homogenized sequence. The sid
// filter is pushed down, so zone maps skip every other signal's
// segment, and also applied per row, so a store whose segments mix
// signals (one served has compacted) still returns only sid's rows.
func (s *Stored) Sequence(ctx context.Context, sid string) (*relation.Relation, error) {
	lit := `"` + strings.NewReplacer(`\`, `\\`, `"`, `\"`).Replace(sid) + `"`
	rel, err := s.Signals.Scan(ctx, engine.Pushdown{Filters: []string{trace.ColSID + " == " + lit}})
	if err != nil {
		return nil, err
	}
	si := rel.Schema.Index(trace.ColSID)
	out := relation.New(rel.Schema)
	for _, p := range rel.Partitions {
		for _, r := range p {
			if r[si].AsString() == sid {
				out.Append(r)
			}
		}
	}
	if out.NumRows() == 0 {
		return nil, fmt.Errorf("core: no stored sequence for signal %q", sid)
	}
	return out, nil
}

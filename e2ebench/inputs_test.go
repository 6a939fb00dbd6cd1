package main

import (
	"context"
	"reflect"
	"testing"

	"ivnt/internal/gen"
)

// small is a fleet small enough for unit tests, with the shape of
// fleet-syn.
var small = workload{name: "small", spec: gen.SYN, journeys: 2, examples: 3000}

func TestGenerateIsDeterministicPerSeed(t *testing.T) {
	a, err := generate(small, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generate(small, 7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := generate(small, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.fingerprint() != b.fingerprint() || a.rows != b.rows {
		t.Fatalf("seed 7 generated two different fleets")
	}
	if a.fingerprint() == c.fingerprint() {
		t.Fatalf("seeds 7 and 8 generated the same fleet")
	}
	if !reflect.DeepEqual(a.catalog, c.catalog) || !reflect.DeepEqual(a.config.SIDs, c.config.SIDs) {
		t.Fatalf("the seed changed the vehicle architecture (catalog or selection)")
	}
}

func TestStatementsAreDeterministicPerSeed(t *testing.T) {
	f, err := generate(small, 3)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := newFramework(f)
	if err != nil {
		t.Fatal(err)
	}
	outs, st, err := runPass(context.Background(), fw, f, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p, err := summarizePass(outs, st, true)
	if err != nil {
		t.Fatal(err)
	}
	a := statements(p.rows, p.motifSID, 3)
	b := statements(p.rows, p.motifSID, 3)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("seed 3 produced two different statement pools")
	}
	c := statements(p.rows, p.motifSID, 4)
	if reflect.DeepEqual(a[classPoint], c[classPoint]) {
		t.Fatalf("seeds 3 and 4 produced the same point windows")
	}
	if len(a[classPoint]) != pointPool || len(a[classScan]) != scanPool || len(a[classAgg]) != 1 {
		t.Fatalf("pool sizes %d/%d/%d", len(a[classPoint]), len(a[classAgg]), len(a[classScan]))
	}
}

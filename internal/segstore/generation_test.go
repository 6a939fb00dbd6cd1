package segstore

import (
	"fmt"
	"testing"

	"ivnt/internal/relation"
)

// Generation is the result-cache invalidation token: it must start at
// zero, bump exactly once per committed seal, and survive reopen.
func TestGenerationBumpsOnSeal(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, testSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g := st.Generation(); g != 0 {
		t.Fatalf("fresh store generation = %d, want 0", g)
	}
	for i := 1; i <= 3; i++ {
		if err := st.AppendSegment(testRows()); err != nil {
			t.Fatal(err)
		}
		if g := st.Generation(); g != uint64(i) {
			t.Fatalf("after %d seals generation = %d", i, g)
		}
	}
	// Empty Writer.Seal is a no-op and must not bump.
	w := st.Writer()
	if err := w.Seal(); err != nil {
		t.Fatal(err)
	}
	if g := st.Generation(); g != 3 {
		t.Fatalf("empty seal bumped generation to %d", g)
	}

	re, err := Open(dir, relation.Schema{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g := re.Generation(); g != 3 {
		t.Fatalf("reopened generation = %d, want 3", g)
	}
}

// A crash at any seal stage must leave the committed generation
// unchanged — a failed seal must not invalidate caches — and the
// reopened store must report the pre-crash value.
func TestGenerationCrashRecovery(t *testing.T) {
	for _, stage := range []string{"chunks", "footer", "sync", "rename", "manifest", "torn", "logsync"} {
		t.Run(stage, func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(dir, testSchema(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := st.AppendSegment(testRows()); err != nil {
				t.Fatal(err)
			}

			DebugSealFailure = func(s string) error {
				if s == stage {
					return fmt.Errorf("killed at %s", s)
				}
				return nil
			}
			defer func() { DebugSealFailure = nil }()
			if err := st.AppendSegment(testRows()); err == nil {
				t.Fatalf("injected crash at %s did not surface", stage)
			}
			DebugSealFailure = nil

			if g := st.Generation(); g != 1 {
				t.Fatalf("crash at %s moved live generation to %d, want 1", stage, g)
			}
			re, err := Open(dir, relation.Schema{}, Options{})
			if err != nil {
				t.Fatalf("reopen after crash at %s: %v", stage, err)
			}
			if g := re.Generation(); g != 1 {
				t.Fatalf("crash at %s: reopened generation = %d, want 1", stage, g)
			}
			// The next successful seal resumes the monotonic count.
			if err := re.AppendSegment(testRows()); err != nil {
				t.Fatal(err)
			}
			if g := re.Generation(); g != 2 {
				t.Fatalf("post-recovery generation = %d, want 2", g)
			}
		})
	}
}

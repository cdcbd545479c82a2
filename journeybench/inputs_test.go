package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestInputDigestDeterministic: the same seed generates byte-identical
// inputs, another seed different ones, and a run's datasets differ
// from one another.
func TestInputDigestDeterministic(t *testing.T) {
	gen := func(seed uint64) ([]*inputs, string) {
		t.Helper()
		sets, digest, err := prepareRun(t.TempDir(), smokeUsers, seed, golden{})
		if err != nil {
			t.Fatal(err)
		}
		return sets, digest
	}
	sets, a := gen(9)
	_, b := gen(9)
	_, c := gen(10)
	if a != b {
		t.Errorf("seed 9 generated twice: digests %s and %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 9 and 10 share digest %s", a)
	}
	seen := map[string]string{}
	for _, in := range sets {
		if other, ok := seen[in.Digest]; ok {
			t.Errorf("datasets %s and %s are identical", other, in.Key)
		}
		seen[in.Digest] = in.Key
	}
}

// TestPrepareInputsReuses: a second prepare of the same inputs reuses
// the first generation, and regenerates after the files change.
func TestPrepareInputsReuses(t *testing.T) {
	work := t.TempDir()
	first, err := prepareInputs(work, smokeUsers, 9, 0, golden{})
	if err != nil {
		t.Fatal(err)
	}
	again, err := prepareInputs(work, smokeUsers, 9, 0, golden{})
	if err != nil {
		t.Fatal(err)
	}
	if again.Digest != first.Digest || len(again.Reference) == 0 {
		t.Fatalf("reuse: digest %s (want %s), %d reference lanes", again.Digest, first.Digest, len(again.Reference))
	}
	if err := os.WriteFile(filepath.Join(first.dataDir(), "users.tsv"), []byte("damaged\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fixed, err := prepareInputs(work, smokeUsers, 9, 0, golden{})
	if err != nil {
		t.Fatal(err)
	}
	if d, err := digestInputs(fixed); err != nil || d != first.Digest {
		t.Fatalf("after damage: files digest %s (%v), want regenerated %s", d, err, first.Digest)
	}
}

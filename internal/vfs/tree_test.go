package vfs

import (
	"strings"
	"testing"

	"activedr/internal/randx"
)

// coveredByModel is coveredBy by brute force over the stored keys: a
// key is covered by an equal stored key, by a stored key it extends
// with a '/', or by the empty key.
func coveredByModel(model map[string]bool, key string) bool {
	for k := range model {
		if k == "" || key == k || strings.HasPrefix(key, k+"/") {
			return true
		}
	}
	return false
}

// TestRadixArbitraryKeys drives the radix tree with random byte-level
// keys (not just well-formed paths) against a set model: shared
// prefixes, empty keys and repeated inserts, with coveredBy queries of
// random keys between them.
func TestRadixArbitraryKeys(t *testing.T) {
	src := randx.New(777)
	alphabet := []byte("ab/€\x00z")
	randKey := func() string {
		n := src.Intn(12)
		b := make([]byte, 0, n)
		for i := 0; i < n; i++ {
			b = append(b, alphabet[src.Intn(len(alphabet))])
		}
		return string(b)
	}
	for round := 0; round < 40; round++ {
		tree := newRadix()
		model := map[string]bool{}
		for step := 0; step < 60; step++ {
			k := randKey()
			if k == "" && round%4 != 0 {
				k = "a" // the root key covers everything: store it in a quarter of the rounds only
			}
			if got := tree.put(k); got != model[k] {
				t.Fatalf("round %d step %d: put(%q) existed = %v, want %v", round, step, k, got, model[k])
			}
			model[k] = true
			if tree.size() != len(model) {
				t.Fatalf("round %d step %d: size %d != model %d", round, step, tree.size(), len(model))
			}
			for q := 0; q < 8; q++ {
				key := randKey()
				if q == 0 {
					key = k + randKey()
				}
				if got, want := tree.coveredBy(key), coveredByModel(model, key); got != want {
					t.Fatalf("round %d step %d: coveredBy(%q) = %v, want %v", round, step, key, got, want)
				}
			}
		}
	}
}

// TestRadixEmptyKey exercises the root-terminal special case: the empty
// key is stored once and covers every key.
func TestRadixEmptyKey(t *testing.T) {
	tree := newRadix()
	if tree.coveredBy("") || tree.coveredBy("/any/path") {
		t.Fatal("empty tree covers a key")
	}
	if tree.put("") {
		t.Fatal("first put of the empty key reported it present")
	}
	if !tree.put("") || tree.size() != 1 {
		t.Fatalf("second put of the empty key: size %d, want 1 and reported present", tree.size())
	}
	if !tree.coveredBy("/any/path") || !tree.coveredBy("") {
		t.Fatal("root terminal should cover all keys")
	}
}

// TestRadixCompression verifies that put keeps the tree compact: shared
// prefixes are stored once, edges split only where keys diverge, and a
// key ending inside an edge splits it without adding a leaf.
func TestRadixCompression(t *testing.T) {
	tree := newRadix()
	nodes := func() int {
		n := 0
		var rec func(*rnode)
		rec = func(nd *rnode) {
			n++
			for _, c := range nd.children {
				rec(c)
			}
		}
		rec(tree.root)
		return n
	}
	tree.put("/a/b/c/d")
	tree.put("/a/b/c/e")
	tree.put("/a/x")
	// root → "/a/" → {"b/c/" → {"d", "e"}, "x"}
	if got := nodes(); got != 6 {
		t.Fatalf("%d nodes after three puts, want 6", got)
	}
	tree.put("/a/b") // ends inside the edge "b/c/"
	if got := nodes(); got != 7 {
		t.Fatalf("%d nodes after splitting an edge, want 7", got)
	}
	for _, k := range []string{"/a/b/c/d", "/a/b/c/e", "/a/x", "/a/b", "/a/b/zz"} {
		if !tree.coveredBy(k) {
			t.Errorf("coveredBy(%q) = false after the split", k)
		}
	}
	if tree.coveredBy("/a/bc") || tree.coveredBy("/a") {
		t.Error("a split point covers keys it does not store")
	}
}

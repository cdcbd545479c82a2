package vfs

import (
	"sort"
	"testing"

	"activedr/internal/randx"
)

// valueAt reads key the way FS.Lookup does: find the node, then check
// that it is terminal.
func valueAt[V any](t *radix[V], key string) (V, bool) {
	n := t.findNode(key)
	if n == nil || !n.terminal {
		var zero V
		return zero, false
	}
	return n.value, true
}

// TestRadixArbitraryKeys drives the radix tree with random byte-level
// keys (not just well-formed paths) against a map model: shared
// prefixes, empty keys, repeated inserts and deletes. The final walk
// is the one FS.Walk and the snapfile writer use.
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
	tree := newRadix[fileRecord]()
	model := map[string]int64{}
	for step := 0; step < 30000; step++ {
		k := randKey()
		switch src.Intn(3) {
		case 0:
			v := int64(src.Intn(1000))
			_, prev, existed := tree.put(k, fileRecord{path: k, meta: FileMeta{Size: v}})
			wantPrev, wantExisted := model[k]
			if existed != wantExisted || (existed && prev.meta.Size != wantPrev) {
				t.Fatalf("step %d: put(%q) = (%d,%v), want (%d,%v)", step, k, prev.meta.Size, existed, wantPrev, wantExisted)
			}
			model[k] = v
		case 1:
			v, ok := valueAt(tree, k)
			wantV, wantOK := model[k]
			if ok != wantOK || (ok && v.meta.Size != wantV) {
				t.Fatalf("step %d: lookup(%q) mismatch", step, k)
			}
		case 2:
			v, ok := tree.delete(k)
			wantV, wantOK := model[k]
			if ok != wantOK || (ok && v.meta.Size != wantV) {
				t.Fatalf("step %d: delete(%q) = (%d,%v), want (%d,%v)", step, k, v.meta.Size, ok, wantV, wantOK)
			}
			delete(model, k)
		}
		if tree.size() != len(model) {
			t.Fatalf("step %d: size %d != model %d", step, tree.size(), len(model))
		}
	}
	// Final walk agrees with the sorted model.
	var wantKeys []string
	for k := range model {
		wantKeys = append(wantKeys, k)
	}
	sort.Strings(wantKeys)
	var gotKeys []string
	walkRecords(tree.root, func(k string, m FileMeta) bool {
		gotKeys = append(gotKeys, k)
		if model[k] != m.Size {
			t.Fatalf("walk value mismatch at %q", k)
		}
		return true
	})
	if len(gotKeys) != len(wantKeys) {
		t.Fatalf("walk yielded %d keys, want %d", len(gotKeys), len(wantKeys))
	}
	for i := range wantKeys {
		if gotKeys[i] != wantKeys[i] {
			t.Fatalf("walk order: got %q want %q at %d", gotKeys[i], wantKeys[i], i)
		}
	}
}

// TestRadixEmptyKey exercises the root-terminal special case.
func TestRadixEmptyKey(t *testing.T) {
	tree := newRadix[string]()
	if _, ok := valueAt(tree, ""); ok {
		t.Fatal("empty tree contains empty key")
	}
	tree.put("", "root")
	if v, ok := valueAt(tree, ""); !ok || v != "root" {
		t.Fatal("empty key lost")
	}
	// A root reservation covers everything.
	if !tree.coveredBy("/any/path") {
		t.Fatal("root terminal should cover all keys")
	}
	if v, ok := tree.delete(""); !ok || v != "root" {
		t.Fatal("empty key not deletable")
	}
	if tree.size() != 0 {
		t.Fatal("size wrong after delete")
	}
	if _, ok := tree.delete(""); ok {
		t.Fatal("double delete of empty key")
	}
}

// TestRadixCompression verifies single-child merging after deletes
// keeps the tree compact.
func TestRadixCompression(t *testing.T) {
	tree := newRadix[int]()
	tree.put("/a/b/c/d", 1)
	tree.put("/a/b/c/e", 2)
	tree.put("/a/x", 3)
	countNodes := func() int {
		n := 0
		var rec func(*rnode[int])
		rec = func(nd *rnode[int]) {
			n++
			for _, c := range nd.children {
				rec(c)
			}
		}
		rec(tree.root)
		return n
	}
	before := countNodes()
	tree.delete("/a/b/c/e")
	after := countNodes()
	if after >= before {
		t.Fatalf("no compaction: %d → %d nodes", before, after)
	}
	if v, ok := valueAt(tree, "/a/b/c/d"); !ok || v != 1 {
		t.Fatal("sibling lost during compaction")
	}
	if v, ok := valueAt(tree, "/a/x"); !ok || v != 3 {
		t.Fatal("cousin lost during compaction")
	}
}

// Package vfs implements the compact prefix tree that serves as the
// virtual parallel file system in the ActiveDR emulation (paper
// §4.1.3: "the compact prefix tree serves as a virtual file system in
// our emulation"). It answers path-membership queries, keeps
// per-file metadata (owner, size, atime), walks the namespace in
// lexicographic order for purge scans, and doubles as the reserved-
// path index backing the purge-exemption feature.
package vfs

import "strings"

// radix is a byte-wise compressed prefix tree. Each node carries the
// edge label that leads to it; terminal nodes own a value. Children
// are kept sorted by their first label byte so walks emit keys in
// lexicographic order — the "system order" FLT scans use.
type radix[V any] struct {
	root  *rnode[V]
	count int
}

type rnode[V any] struct {
	label    string
	children []*rnode[V]
	// childKeys mirrors children: childKeys[i] == children[i].label[0].
	// Descents search this contiguous byte slice instead of chasing a
	// child pointer per probe — the tree descent is the replay's
	// hottest loop, and the pointer chase dominated its profile.
	childKeys []byte
	value     V
	terminal  bool
}

func newRadix[V any]() *radix[V] {
	return &radix[V]{root: &rnode[V]{}}
}

// commonPrefixLen returns the length of the shared prefix of a and b.
func commonPrefixLen(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// childIndex locates the child whose label starts with byte c,
// returning (index, found) — insertion point when not found. Small
// fan-outs scan linearly (cheaper than a binary search's mispredicted
// branches); large ones binary-search the key bytes. Hand-rolled
// rather than sort.Search: the closure call costs more than the
// search on this path.
func (n *rnode[V]) childIndex(c byte) (int, bool) {
	keys := n.childKeys
	if len(keys) <= 8 {
		for i := 0; i < len(keys); i++ {
			if keys[i] >= c {
				return i, keys[i] == c
			}
		}
		return len(keys), false
	}
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(keys) && keys[lo] == c {
		return lo, true
	}
	return lo, false
}

func (n *rnode[V]) insertChild(i int, child *rnode[V]) {
	n.children = append(n.children, nil)
	copy(n.children[i+1:], n.children[i:])
	n.children[i] = child
	n.childKeys = append(n.childKeys, 0)
	copy(n.childKeys[i+1:], n.childKeys[i:])
	n.childKeys[i] = child.label[0]
}

// put inserts or replaces key. It returns the terminal node now
// holding the value (stable for the key's lifetime: splits keep the
// existing child object and deletes of other keys merge around it, so
// callers may cache the pointer until the key itself is deleted),
// whether the key was new, and the previous value when it was not.
func (t *radix[V]) put(key string, v V) (node *rnode[V], prev V, existed bool) {
	if key == "" {
		prev, existed = t.root.value, t.root.terminal
		t.root.value, t.root.terminal = v, true
		if !existed {
			t.count++
		}
		return t.root, prev, existed
	}
	n := t.root
	rest := key
	for {
		i, ok := n.childIndex(rest[0])
		if !ok {
			leaf := &rnode[V]{label: rest, value: v, terminal: true}
			n.insertChild(i, leaf)
			t.count++
			return leaf, prev, false
		}
		child := n.children[i]
		cp := commonPrefixLen(rest, child.label)
		if cp == len(child.label) {
			if cp == len(rest) {
				prev, existed = child.value, child.terminal
				child.value, child.terminal = v, true
				if !existed {
					t.count++
				}
				return child, prev, existed
			}
			n, rest = child, rest[cp:]
			continue
		}
		// Split the edge at cp. The split node keeps the old first
		// byte, so n.childKeys[i] stays valid.
		split := &rnode[V]{label: child.label[:cp]}
		child.label = child.label[cp:]
		split.children = []*rnode[V]{child}
		split.childKeys = []byte{child.label[0]}
		if cp == len(rest) {
			split.value, split.terminal = v, true
			n.children[i] = split
			t.count++
			return split, prev, false
		}
		leaf := &rnode[V]{label: rest[cp:], value: v, terminal: true}
		if leaf.label[0] < child.label[0] {
			split.children = []*rnode[V]{leaf, child}
			split.childKeys = []byte{leaf.label[0], child.label[0]}
		} else {
			split.children = []*rnode[V]{child, leaf}
			split.childKeys = []byte{child.label[0], leaf.label[0]}
		}
		n.children[i] = split
		t.count++
		return leaf, prev, false
	}
}

// findNode returns the node exactly matching key, terminal or not.
func (t *radix[V]) findNode(key string) *rnode[V] {
	n := t.root
	rest := key
	for rest != "" {
		i, ok := n.childIndex(rest[0])
		if !ok {
			return nil
		}
		child := n.children[i]
		if !strings.HasPrefix(rest, child.label) {
			return nil
		}
		rest = rest[len(child.label):]
		n = child
	}
	return n
}

// delete removes key, merging single-child pass-through nodes so the
// tree stays compact. It reports whether the key existed.
func (t *radix[V]) delete(key string) (V, bool) {
	var zero V
	if key == "" {
		if !t.root.terminal {
			return zero, false
		}
		v := t.root.value
		t.root.terminal = false
		t.root.value = zero
		t.count--
		return v, true
	}
	type frame struct {
		parent *rnode[V]
		index  int
	}
	// Backed by a fixed array so the descent records stay on the
	// stack; purge sweeps delete tens of thousands of keys per
	// trigger and a heap-grown slice here dominated the allocation
	// profile. Tree depth beyond 64 spills to append and still works.
	var pathBuf [64]frame
	path := pathBuf[:0]
	n := t.root
	rest := key
	for rest != "" {
		i, ok := n.childIndex(rest[0])
		if !ok {
			return zero, false
		}
		child := n.children[i]
		if !strings.HasPrefix(rest, child.label) {
			return zero, false
		}
		path = append(path, frame{parent: n, index: i})
		rest = rest[len(child.label):]
		n = child
	}
	if !n.terminal {
		return zero, false
	}
	v := n.value
	n.terminal = false
	n.value = zero
	t.count--
	// Prune upward: drop childless non-terminal nodes (which may make
	// their parents childless in turn), then merge a single-child
	// pass-through node into its child once and stop — merging does
	// not change the parent's child count, so nothing above it can
	// have become prunable.
	for i := len(path) - 1; i >= 0; i-- {
		f := path[i]
		node := f.parent.children[f.index]
		if node.terminal {
			break
		}
		if len(node.children) == 0 {
			f.parent.children = append(f.parent.children[:f.index], f.parent.children[f.index+1:]...)
			f.parent.childKeys = append(f.parent.childKeys[:f.index], f.parent.childKeys[f.index+1:]...)
			continue
		}
		if len(node.children) == 1 {
			// The merged child inherits node's label prefix, so the
			// parent's key byte for this slot is unchanged.
			child := node.children[0]
			child.label = node.label + child.label
			f.parent.children[f.index] = child
		}
		break
	}
	return v, true
}

// countNodes sizes the arena a clone carves its copies from.
func countNodes[V any](n *rnode[V]) int {
	c := 1
	for _, ch := range n.children {
		c += countNodes(ch)
	}
	return c
}

// clone deep-copies the tree structurally. Labels and values are
// shared (strings are immutable, values copy by value), and all nodes
// plus all child-pointer slices are carved from two bulk allocations
// sized by a pre-count walk — a clone happens once per replay run,
// and per-node allocations were a fifth of the replay's allocation
// profile. Child slices are capped (three-index slicing) so a later
// insertChild on the copy reallocates instead of stomping a sibling's
// arena segment.
func (t *radix[V]) clone() *radix[V] {
	total := countNodes(t.root)
	arena := make([]rnode[V], total)
	ptrs := make([]*rnode[V], total-1) // every node but the root is someone's child
	keys := make([]byte, total-1)
	ni, pi := 0, 0
	var cp func(src *rnode[V]) *rnode[V]
	cp = func(src *rnode[V]) *rnode[V] {
		dst := &arena[ni]
		ni++
		dst.label, dst.value, dst.terminal = src.label, src.value, src.terminal
		if k := len(src.children); k > 0 {
			ch := ptrs[pi : pi+k : pi+k]
			kk := keys[pi : pi+k : pi+k]
			pi += k
			copy(kk, src.childKeys)
			for i, c := range src.children {
				ch[i] = cp(c)
			}
			dst.children, dst.childKeys = ch, kk
		}
		return dst
	}
	return &radix[V]{root: cp(t.root), count: t.count}
}

// coveredBy reports whether key equals a stored key or descends from
// a stored key treated as a directory (stored key followed by '/').
// This powers subtree reservations.
func (t *radix[V]) coveredBy(key string) bool {
	n := t.root
	rest := key
	if n.terminal {
		return true // root reservation covers everything
	}
	consumed := 0
	for rest != "" {
		i, ok := n.childIndex(rest[0])
		if !ok {
			return false
		}
		child := n.children[i]
		if !strings.HasPrefix(rest, child.label) {
			return false
		}
		rest = rest[len(child.label):]
		consumed += len(child.label)
		n = child
		if n.terminal {
			if rest == "" || rest[0] == '/' {
				return true
			}
		}
	}
	return false
}

func (t *radix[V]) size() int { return t.count }

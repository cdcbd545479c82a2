// Package vfs implements the virtual parallel file system of the
// ActiveDR emulation (paper §4.1.3). The namespace is a record table:
// a slab of per-file records (owner, size, atime and the canonical
// path string) addressed by dense ids, one path-to-id map that answers
// path membership, and a free list of released ids (vfs.go). Walks and
// snapshots sort ids by path, so purge scans still see the
// lexicographic "system order". The paper keeps its namespace in a
// compact prefix tree; here the prefix tree serves only the
// reserved-path index behind the purge-exemption feature, whose
// subtree reservations need prefixes (this file).
package vfs

import "strings"

// radix is a byte-wise compressed prefix tree holding a set of keys.
// Each node carries the edge label that leads to it; terminal nodes
// end a stored key. Children are kept sorted by their first label
// byte.
type radix struct {
	root  *rnode
	count int
}

type rnode struct {
	label    string
	children []*rnode
	// childKeys mirrors children: childKeys[i] == children[i].label[0].
	// Descents search this contiguous byte slice instead of chasing a
	// child pointer per probe.
	childKeys []byte
	terminal  bool
}

func newRadix() *radix {
	return &radix{root: &rnode{}}
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
// branches); large ones binary-search the key bytes.
func (n *rnode) childIndex(c byte) (int, bool) {
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

func (n *rnode) insertChild(i int, child *rnode) {
	n.children = append(n.children, nil)
	copy(n.children[i+1:], n.children[i:])
	n.children[i] = child
	n.childKeys = append(n.childKeys, 0)
	copy(n.childKeys[i+1:], n.childKeys[i:])
	n.childKeys[i] = child.label[0]
}

// put adds key to the set, reporting whether it was already there.
func (t *radix) put(key string) (existed bool) {
	n := t.root
	rest := key
	for rest != "" {
		i, ok := n.childIndex(rest[0])
		if !ok {
			n.insertChild(i, &rnode{label: rest, terminal: true})
			t.count++
			return false
		}
		child := n.children[i]
		cp := commonPrefixLen(rest, child.label)
		if cp == len(child.label) {
			n, rest = child, rest[cp:]
			continue
		}
		// Split the edge at cp. The split node keeps the old first
		// byte, so n.childKeys[i] stays valid.
		split := &rnode{label: child.label[:cp]}
		child.label = child.label[cp:]
		split.children = []*rnode{child}
		split.childKeys = []byte{child.label[0]}
		n.children[i] = split
		n, rest = split, rest[cp:]
	}
	existed = n.terminal
	if !existed {
		n.terminal = true
		t.count++
	}
	return existed
}

// coveredBy reports whether key equals a stored key or descends from
// a stored key treated as a directory (stored key followed by '/').
// This powers subtree reservations.
func (t *radix) coveredBy(key string) bool {
	n := t.root
	rest := key
	if n.terminal {
		return true // root reservation covers everything
	}
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
		n = child
		if n.terminal {
			if rest == "" || rest[0] == '/' {
				return true
			}
		}
	}
	return false
}

func (t *radix) size() int { return t.count }

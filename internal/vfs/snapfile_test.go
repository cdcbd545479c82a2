package vfs

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"activedr/internal/timeutil"
	"activedr/internal/trace"
)

// snapFixture builds a deterministic snapshot with users spread over
// several prefixes and atimes spread over several days, entries
// sorted by path (the canonical snapshot order).
func snapFixture(nUsers, filesPer int) *trace.Snapshot {
	rng := rand.New(rand.NewSource(0x5eed))
	s := &trace.Snapshot{Taken: timeutil.Time(200 * 86400)}
	for u := 0; u < nUsers; u++ {
		for i := 0; i < filesPer; i++ {
			s.Entries = append(s.Entries, trace.SnapshotEntry{
				Path:    fmt.Sprintf("/lustre/atlas/u%05d/proj%d/out%04d.dat", u, i%3, i),
				User:    trace.UserID(u),
				Size:    int64(rng.Intn(1 << 20)),
				Stripes: 1 + rng.Intn(4),
				ATime:   timeutil.Time(int64(rng.Intn(180)) * 86400),
			})
		}
	}
	sortSnapshotEntries(s)
	return s
}

func sortSnapshotEntries(s *trace.Snapshot) {
	es := s.Entries
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && es[j].Path < es[j-1].Path; j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
}

func writeFixture(t *testing.T, s *trace.Snapshot) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "snap.advfs")
	if err := WriteSnapfileFromSnapshot(path, s); err != nil {
		t.Fatalf("WriteSnapfileFromSnapshot: %v", err)
	}
	return path
}

func TestSnapfileRoundTrip(t *testing.T) {
	s := snapFixture(7, 11)
	path := writeFixture(t, s)
	sf, err := OpenSnapfile(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if sf.Taken() != s.Taken {
		t.Fatalf("taken = %d, want %d", sf.Taken(), s.Taken)
	}
	if sf.Count() != len(s.Entries) {
		t.Fatalf("count = %d, want %d", sf.Count(), len(s.Entries))
	}
	fs, err := LoadSnapfileFS(sf)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := sf.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	for i, e := range s.Entries {
		m, ok := fs.Lookup(e.Path)
		if !ok || m.User != e.User || m.Size != e.Size || m.Stripes != e.Stripes || m.ATime != e.ATime {
			t.Fatalf("entry %d %q = %+v %v", i, e.Path, m, ok)
		}
	}
	if _, ok := fs.Lookup("/lustre/atlas/nosuch/file"); ok {
		t.Fatal("lookup of a missing path succeeded")
	}
}

// TestSnapfileLoadEquivalence proves the eager loader reconstructs
// exactly the state FromSnapshot builds from the same entries: tree
// contents, accounting, and — via StaleFiles — the candidate index.
func TestSnapfileLoadEquivalence(t *testing.T) {
	s := snapFixture(9, 13)
	path := writeFixture(t, s)
	want, err := FromSnapshot(s)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := OpenSnapfile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	got, err := LoadSnapfileFS(sf)
	if err != nil {
		t.Fatalf("LoadSnapfileFS: %v", err)
	}
	requireSameNamespace(t, want, got, s.Taken)
}

// requireSameNamespace compares two namespaces for observable
// equality: snapshot walk, totals, per-user accounting, and stale
// scans at several cutoffs (exercising index order).
func requireSameNamespace(t *testing.T, want, got *FS, taken timeutil.Time) {
	t.Helper()
	ws, gs := want.Snapshot(taken), got.Snapshot(taken)
	if len(ws.Entries) != len(gs.Entries) {
		t.Fatalf("entry count %d vs %d", len(gs.Entries), len(ws.Entries))
	}
	for i := range ws.Entries {
		if ws.Entries[i] != gs.Entries[i] {
			t.Fatalf("entry %d: got %+v want %+v", i, gs.Entries[i], ws.Entries[i])
		}
	}
	if want.Count() != got.Count() || want.TotalBytes() != got.TotalBytes() {
		t.Fatalf("count/bytes mismatch: %d/%d vs %d/%d", got.Count(), got.TotalBytes(), want.Count(), want.TotalBytes())
	}
	wu, gu := want.Users(), got.Users()
	if len(wu) != len(gu) {
		t.Fatalf("users %v vs %v", gu, wu)
	}
	for i := range wu {
		if wu[i] != gu[i] {
			t.Fatalf("users %v vs %v", gu, wu)
		}
		u := wu[i]
		if want.UserBytes(u) != got.UserBytes(u) || want.UserFiles(u) != got.UserFiles(u) {
			t.Fatalf("user %d accounting mismatch", u)
		}
		for _, cutoff := range []timeutil.Time{0, timeutil.Time(30 * 86400), timeutil.Time(90 * 86400), taken} {
			wc := want.StaleFiles(u, cutoff)
			gc := got.StaleFiles(u, cutoff)
			if len(wc) != len(gc) {
				t.Fatalf("user %d cutoff %d: %d vs %d candidates", u, cutoff, len(gc), len(wc))
			}
			for j := range wc {
				if wc[j].Path != gc[j].Path || wc[j].Meta != gc[j].Meta {
					t.Fatalf("user %d cutoff %d candidate %d: %+v vs %+v", u, cutoff, j, gc[j], wc[j])
				}
			}
		}
	}
}

// TestSnapfileWriteIsDeterministic proves write → load → write
// produces a byte-identical file, so snapfiles can be diffed and
// content-addressed.
func TestSnapfileWriteIsDeterministic(t *testing.T) {
	s := snapFixture(5, 9)
	p1 := writeFixture(t, s)
	sf, err := OpenSnapfile(p1)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := LoadSnapfileFS(sf)
	if err != nil {
		t.Fatal(err)
	}
	if err := sf.Close(); err != nil {
		t.Fatal(err)
	}
	p2 := filepath.Join(t.TempDir(), "snap2.advfs")
	if err := WriteSnapfileFromSnapshot(p2, fs.Snapshot(s.Taken)); err != nil {
		t.Fatal(err)
	}
	b1, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("rewrite differs: %d vs %d bytes", len(b1), len(b2))
	}
}

// TestSnapfileTruncateEveryByte cuts the file at every possible
// length and requires a typed error — never a panic, never a
// successful open of a strict prefix.
func TestSnapfileTruncateEveryByte(t *testing.T) {
	s := snapFixture(3, 5)
	full, err := os.ReadFile(writeFixture(t, s))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	target := filepath.Join(dir, "trunc.advfs")
	for n := 0; n < len(full); n++ {
		if err := os.WriteFile(target, full[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		sf, err := OpenSnapfile(target)
		if err == nil {
			sf.Close()
			t.Fatalf("open succeeded at %d of %d bytes", n, len(full))
		}
		if !errors.Is(err, ErrCorruptSnapfile) {
			t.Fatalf("truncation at %d: error %v does not wrap ErrCorruptSnapfile", n, err)
		}
	}
}

// TestSnapfileCorruptionDetected flips bytes through the body and
// requires the eager loader's CRC pass to reject each mutation (a
// flip may also trip a structural check first; either way the error
// must be typed).
func TestSnapfileCorruptionDetected(t *testing.T) {
	s := snapFixture(3, 5)
	full, err := os.ReadFile(writeFixture(t, s))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	target := filepath.Join(dir, "flip.advfs")
	// Every byte from the end of the header on; stepping 1 keeps the
	// test O(file²) small with the tiny fixture.
	for off := snapHdrSize; off < len(full); off++ {
		mut := append([]byte(nil), full...)
		mut[off] ^= 0x41
		if err := os.WriteFile(target, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		sf, err := OpenSnapfile(target)
		if err != nil {
			if !errors.Is(err, ErrCorruptSnapfile) {
				t.Fatalf("flip at %d: open error %v not typed", off, err)
			}
			continue
		}
		_, lerr := LoadSnapfileFS(sf)
		sf.Close()
		if lerr == nil {
			t.Fatalf("flip at %d: load succeeded", off)
		}
		if !errors.Is(lerr, ErrCorruptSnapfile) {
			t.Fatalf("flip at %d: load error %v not typed", off, lerr)
		}
	}
}

func TestSnapfileEmpty(t *testing.T) {
	s := &trace.Snapshot{Taken: timeutil.Time(42)}
	path := writeFixture(t, s)
	sf, err := OpenSnapfile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	if sf.Count() != 0 || sf.Taken() != timeutil.Time(42) {
		t.Fatalf("count=%d taken=%d", sf.Count(), sf.Taken())
	}
	fs, err := LoadSnapfileFS(sf)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Count() != 0 {
		t.Fatalf("loaded count = %d", fs.Count())
	}
}

// TestSnapfileBytesArePinned pins the writer's output bytes: the
// format, the header and the CRC. A change to any of them must
// re-record these digests and say why.
func TestSnapfileBytesArePinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    *trace.Snapshot
		size int
		sha  string
	}{
		{"fixture", snapFixture(5, 9), 3551, "08669e5b304dfa94eb14953a37e15ce44a6ca01187d9c7fecc690b60b564cba1"},
		{"empty", &trace.Snapshot{Taken: timeutil.Time(42)}, snapHdrSize, "05d6bf43963ce442a98b61f6f97dd365843f2e24486e7656e865d23161513006"},
	} {
		b, err := os.ReadFile(writeFixture(t, tc.s))
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(b)); len(b) != tc.size || got != tc.sha {
			t.Errorf("%s: %d bytes, sha256 %s; want %d bytes, %s", tc.name, len(b), got, tc.size, tc.sha)
		}
	}
}

// churnedFS builds an FS holding exactly the entries of s after a
// history that scatters its record ids: decoy files come first and are
// removed partway, so later inserts reuse their ids, entries go in in
// reverse path order, and every third entry is first inserted under
// other metadata and then replaced.
func churnedFS(t *testing.T, s *trace.Snapshot) *FS {
	t.Helper()
	fs := New()
	insert := func(p string, m FileMeta) {
		if err := fs.Insert(p, m); err != nil {
			t.Fatal(err)
		}
	}
	const decoys = 40
	for i := 0; i < decoys; i++ {
		insert(fmt.Sprintf("/decoy/%02d", i), FileMeta{User: 9, Size: 3, Stripes: 1, ATime: 5})
	}
	removed := 0
	for i := len(s.Entries) - 1; i >= 0; i-- {
		e := &s.Entries[i]
		if i%3 == 0 {
			insert(e.Path, FileMeta{User: e.User + 1, Size: 1, Stripes: 1, ATime: e.ATime + 86400})
		}
		if i%2 == 0 && removed < decoys {
			fs.Remove(fmt.Sprintf("/decoy/%02d", removed))
			removed++
		}
		insert(e.Path, FileMeta{User: e.User, Size: e.Size, Stripes: e.Stripes, ATime: e.ATime})
	}
	for ; removed < decoys; removed++ {
		fs.Remove(fmt.Sprintf("/decoy/%02d", removed))
	}
	return fs
}

// TestOutputsIgnoreRecordIDs pins that no output depends on record
// ids or slab order: an FS loaded from the fixture's snapfile (ids in
// path order) and a churned FS holding the same files (ids scattered)
// give identical walks, Snapshots, stale-file answers and snapfile
// bytes, the last equal to the pinned ones.
func TestOutputsIgnoreRecordIDs(t *testing.T) {
	snap := snapFixture(5, 9)
	sf, err := OpenSnapfile(writeFixture(t, snap))
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapfileFS(sf)
	if cerr := sf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	churned := churnedFS(t, snap)
	moved := 0
	for _, e := range snap.Entries {
		if loaded.tab.ids[e.Path] != churned.tab.ids[e.Path] {
			moved++
		}
	}
	if moved < len(snap.Entries)/2 {
		t.Fatalf("only %d of %d files changed id: the histories do not differ enough", moved, len(snap.Entries))
	}
	for name, fs := range map[string]*FS{"loaded": loaded, "churned": churned} {
		got := fs.Snapshot(snap.Taken)
		if !reflect.DeepEqual(got, snap) {
			t.Fatalf("%s: Snapshot differs from the fixture", name)
		}
		unsorted := fs.SnapshotUnsorted(snap.Taken)
		slices.SortFunc(unsorted.Entries, func(a, b trace.SnapshotEntry) int { return strings.Compare(a.Path, b.Path) })
		if !reflect.DeepEqual(unsorted, snap) {
			t.Fatalf("%s: SnapshotUnsorted, sorted by path, differs from the fixture", name)
		}
		var walked []string
		fs.Walk(func(p string, _ FileMeta) bool {
			walked = append(walked, p)
			return true
		})
		for i, e := range snap.Entries {
			if walked[i] != e.Path {
				t.Fatalf("%s: walk visits %q at %d, want %q", name, walked[i], i, e.Path)
			}
		}
		b, err := os.ReadFile(writeFixture(t, got))
		if err != nil {
			t.Fatal(err)
		}
		if sum := fmt.Sprintf("%x", sha256.Sum256(b)); sum != "08669e5b304dfa94eb14953a37e15ce44a6ca01187d9c7fecc690b60b564cba1" {
			t.Fatalf("%s: snapfile sha256 %s, want the pinned fixture's", name, sum)
		}
	}
	model := map[string]FileMeta{}
	for _, e := range snap.Entries {
		model[e.Path] = FileMeta{User: e.User, Size: e.Size, Stripes: e.Stripes, ATime: e.ATime}
	}
	for u := trace.UserID(0); u < 5; u++ {
		for _, cutoff := range []timeutil.Time{60 * 86400, 200 * 86400} {
			checkStale(t, loaded, model, u, cutoff)
			checkStale(t, churned, model, u, cutoff)
		}
	}
}

// TestReadsShareAnFS runs Lookup, Walk and Snapshot from several
// goroutines at once on a churned FS and on a lane view of one, which
// nobody mutates meanwhile, as Figure 12's sharded scan does: reads
// keep no state in the FS, so the race detector finds nothing and
// every reader sees the whole namespace.
func TestReadsShareAnFS(t *testing.T) {
	snap := snapFixture(5, 9)
	lane := AdoptLaneGroup(churnedFS(t, snap), 2, 0).Lane(1)
	for name, fs := range map[string]*FS{"private": churnedFS(t, snap), "lane": lane} {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, e := range snap.Entries {
					if m, ok := fs.Lookup(e.Path); !ok || m.Size != e.Size {
						t.Errorf("%s: Lookup(%q) = (%+v, %v)", name, e.Path, m, ok)
						return
					}
				}
				n := 0
				fs.Walk(func(string, FileMeta) bool { n++; return true })
				if s := fs.Snapshot(snap.Taken); n != len(snap.Entries) || !reflect.DeepEqual(s, snap) {
					t.Errorf("%s: a reader walked %d files and snapshotted %d, want %d", name, n, len(s.Entries), len(snap.Entries))
				}
			}()
		}
		wg.Wait()
	}
}

// TestSnapfileWriterValidation feeds the writer snapshots it must
// reject; each must fail before anything reaches the disk, leaving
// neither the destination nor its temp file.
func TestSnapfileWriterValidation(t *testing.T) {
	for _, tc := range []struct {
		name    string
		entries []trace.SnapshotEntry
	}{
		{"relative path", []trace.SnapshotEntry{{Path: "relative/path"}}},
		{"negative size", []trace.SnapshotEntry{{Path: "/b", Size: -1}}},
		{"negative user", []trace.SnapshotEntry{{Path: "/b", User: -1}}},
		{"descending paths", []trace.SnapshotEntry{{Path: "/b"}, {Path: "/a"}}},
		{"duplicate path", []trace.SnapshotEntry{{Path: "/b"}, {Path: "/b"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dst := filepath.Join(t.TempDir(), "v.advfs")
			if err := WriteSnapfileFromSnapshot(dst, &trace.Snapshot{Entries: tc.entries}); err == nil {
				t.Fatal("accepted")
			}
			for _, p := range []string{dst, dst + ".tmp"} {
				if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
					t.Errorf("%s left behind (stat: %v)", filepath.Base(p), err)
				}
			}
		})
	}
}

// FuzzOpenSnapfile drives arbitrary bytes through the full decode
// surface: open and the loader. Any failure must surface as an error
// wrapping ErrCorruptSnapfile — never a panic, never an out-of-bounds
// read.
func FuzzOpenSnapfile(f *testing.F) {
	s := snapFixture(2, 4)
	dir := f.TempDir()
	seedPath := filepath.Join(dir, "seed.advfs")
	if err := WriteSnapfileFromSnapshot(seedPath, s); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:snapHdrSize])
	mut := append([]byte(nil), valid...)
	mut[60] ^= 0xff // first section offset
	f.Add(mut)
	mut2 := append([]byte(nil), valid...)
	mut2[snapHdrSize+3] ^= 0x10 // segment table
	f.Add(mut2)
	f.Add([]byte(snapMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		target := filepath.Join(t.TempDir(), "fuzz.advfs")
		if err := os.WriteFile(target, data, 0o644); err != nil {
			t.Skip()
		}
		sf, err := OpenSnapfile(target)
		if err != nil {
			if !errors.Is(err, ErrCorruptSnapfile) {
				t.Fatalf("open error %v not typed", err)
			}
			return
		}
		defer sf.Close()
		if _, err := LoadSnapfileFS(sf); err != nil && !errors.Is(err, ErrCorruptSnapfile) {
			t.Fatalf("load error %v not typed", err)
		}
	})
}

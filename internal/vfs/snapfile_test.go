package vfs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
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
	for _, paged := range []bool{false, true} {
		sf, err := OpenSnapfileWith(path, SnapfileOpenOptions{PagedReads: paged})
		if err != nil {
			t.Fatalf("open (paged=%v): %v", paged, err)
		}
		if sf.Taken() != s.Taken {
			t.Fatalf("taken = %d, want %d", sf.Taken(), s.Taken)
		}
		if sf.Count() != len(s.Entries) {
			t.Fatalf("count = %d, want %d", sf.Count(), len(s.Entries))
		}
		for i, e := range s.Entries {
			p, m, err := sf.Entry(i)
			if err != nil {
				t.Fatalf("entry %d: %v", i, err)
			}
			if p != e.Path || m.User != e.User || m.Size != e.Size || m.Stripes != e.Stripes || m.ATime != e.ATime {
				t.Fatalf("entry %d = %q %+v, want %q", i, p, m, e.Path)
			}
			got, ok, err := sf.Lookup(e.Path)
			if err != nil || !ok || got != m {
				t.Fatalf("lookup %q = %+v %v %v", e.Path, got, ok, err)
			}
		}
		if _, ok, err := sf.Lookup("/lustre/atlas/nosuch/file"); ok || err != nil {
			t.Fatalf("lookup miss: ok=%v err=%v", ok, err)
		}
		if err := sf.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
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
	if err := WriteSnapfile(p2, fs, s.Taken); err != nil {
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
	if _, ok, err := sf.Lookup("/a"); ok || err != nil {
		t.Fatalf("lookup on empty: %v %v", ok, err)
	}
	fs, err := LoadSnapfileFS(sf)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Count() != 0 {
		t.Fatalf("loaded count = %d", fs.Count())
	}
}

func TestSnapfileWriterValidation(t *testing.T) {
	dir := t.TempDir()
	w, err := NewSnapfileWriter(filepath.Join(dir, "v.advfs"), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	if err := w.Add("relative/path", FileMeta{}); err == nil {
		t.Fatal("relative path accepted")
	}
	if err := w.Add("/b", FileMeta{Size: -1}); err == nil {
		t.Fatal("negative size accepted")
	}
	if err := w.Add("/b", FileMeta{}); err != nil {
		t.Fatal(err)
	}
	if err := w.Add("/a", FileMeta{}); err == nil {
		t.Fatal("descending path accepted")
	}
	if err := w.Add("/b", FileMeta{}); err == nil {
		t.Fatal("duplicate path accepted")
	}
}

// FuzzOpenSnapfile drives arbitrary bytes through the full decode
// surface: open, random access, and the eager loader. Any failure
// must surface as an error wrapping ErrCorruptSnapfile — never a
// panic, never an out-of-bounds read.
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
		for _, paged := range []bool{false, true} {
			sf, err := OpenSnapfileWith(target, SnapfileOpenOptions{PagedReads: paged})
			if err != nil {
				if !errors.Is(err, ErrCorruptSnapfile) {
					t.Fatalf("open error %v not typed", err)
				}
				continue
			}
			n := sf.Count()
			if n > 64 {
				n = 64
			}
			for i := 0; i < n; i++ {
				if _, _, err := sf.Entry(i); err != nil && !errors.Is(err, ErrCorruptSnapfile) {
					t.Fatalf("entry error %v not typed", err)
				}
			}
			if _, _, err := sf.Lookup("/lustre/atlas/u00000/proj0/out0000.dat"); err != nil && !errors.Is(err, ErrCorruptSnapfile) {
				t.Fatalf("lookup error %v not typed", err)
			}
			if _, err := LoadSnapfileFS(sf); err != nil && !errors.Is(err, ErrCorruptSnapfile) {
				t.Fatalf("load error %v not typed", err)
			}
			sf.Close()
		}
	})
}

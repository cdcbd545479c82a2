package synth

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"activedr/internal/timeutil"
	"activedr/internal/trace"
	"activedr/internal/vfs"
)

// TestStreamSnapshotOrdered pins the generator's load-bearing
// contract: entries arrive in strictly ascending path order (what
// vfs.SnapfileWriter requires), users appear in ID order, and every
// field stays in range.
func TestStreamSnapshotOrdered(t *testing.T) {
	cfg := StreamConfig{Seed: 7, Users: 500, MeanFiles: 9}.Defaults()
	prev := ""
	lastUser := trace.UserID(0)
	n, err := StreamSnapshot(cfg, func(e trace.SnapshotEntry) error {
		if prev != "" && e.Path <= prev {
			t.Fatalf("paths out of order: %q after %q", e.Path, prev)
		}
		prev = e.Path
		if e.User < lastUser {
			t.Fatalf("user %d after user %d", e.User, lastUser)
		}
		lastUser = e.User
		if e.User >= trace.UserID(cfg.Users) || e.Size <= 0 || e.Stripes < 1 {
			t.Fatalf("entry out of range: %+v", e)
		}
		if e.ATime > cfg.Taken || e.ATime < cfg.Taken.Add(-timeutil.Days(366)) {
			t.Fatalf("atime %v outside the year before %v", e.ATime, cfg.Taken)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Uniform draw over [1, 2*MeanFiles-1] per user: the total should
	// land near Users*MeanFiles.
	if n < cfg.Users*cfg.MeanFiles/2 || n > cfg.Users*cfg.MeanFiles*2 {
		t.Fatalf("emitted %d entries for %d users (mean %d)", n, cfg.Users, cfg.MeanFiles)
	}
	if lastUser != trace.UserID(cfg.Users-1) {
		t.Fatalf("last user %d, want %d (every user owns at least one file)", lastUser, cfg.Users-1)
	}
}

// TestStreamSnapshotDeterministic: same config, same stream — and the
// per-user state is order-independent, so the user table's Created
// times must also reproduce.
func TestStreamSnapshotDeterministic(t *testing.T) {
	cfg := StreamConfig{Seed: 21, Users: 200}
	collect := func() []trace.SnapshotEntry {
		var out []trace.SnapshotEntry
		if _, err := StreamSnapshot(cfg, func(e trace.SnapshotEntry) error {
			out = append(out, e)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := collect(), collect()
	if len(a) != len(b) {
		t.Fatalf("stream lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("entry %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	ua, ub := cfg.StreamUsers(), cfg.StreamUsers()
	for i := range ua {
		if ua[i] != ub[i] {
			t.Fatalf("user %d differs between generations", i)
		}
	}
}

// TestStreamSnapshotToSnapfile feeds the stream into a snapfile and
// loads it back: the decoded namespace must carry exactly the
// streamed entries. This is the spider preset's pipeline at toy
// scale.
func TestStreamSnapshotToSnapfile(t *testing.T) {
	cfg := StreamConfig{Seed: 3, Users: 120, MeanFiles: 6}.Defaults()
	path := filepath.Join(t.TempDir(), "fs.snap")
	w, err := vfs.NewSnapfileWriter(path, cfg.Taken)
	if err != nil {
		t.Fatal(err)
	}
	var want []trace.SnapshotEntry
	if _, err := StreamSnapshot(cfg, func(e trace.SnapshotEntry) error {
		want = append(want, e)
		return w.Add(e.Path, vfs.FileMeta{User: e.User, Size: e.Size, Stripes: e.Stripes, ATime: e.ATime})
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	sf, err := vfs.OpenSnapfile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	if sf.Count() != len(want) {
		t.Fatalf("snapfile holds %d files, streamed %d", sf.Count(), len(want))
	}
	fsys, err := vfs.LoadSnapfileFS(sf)
	if err != nil {
		t.Fatal(err)
	}
	got := fsys.Snapshot(cfg.Taken)
	for i := range want {
		g := got.Entries[i]
		if g.Path != want[i].Path || g.User != want[i].User || g.Size != want[i].Size ||
			g.Stripes != want[i].Stripes || g.ATime != want[i].ATime {
			t.Fatalf("entry %d: loaded %+v, streamed %+v", i, g, want[i])
		}
	}
}

// TestStreamSnapshotValidation rejects scales the layout cannot keep
// sorted.
func TestStreamSnapshotValidation(t *testing.T) {
	if _, err := StreamSnapshot(StreamConfig{Users: -1, MeanFiles: 4, Seed: 1, Taken: 100}, nil); err == nil {
		t.Error("negative user count accepted")
	}
	if _, err := StreamSnapshot(StreamConfig{Users: 1, MeanFiles: 300, Seed: 1, Taken: 100}, nil); err == nil {
		t.Error("mean files past the layout limit accepted")
	}
}

// TestSpiderStreamScale is the preset's acceptance run: a million
// users, over ten million files, streamed into a snapfile without
// materializing the namespace — heap stays bounded — then reopened
// with O(1) cost. Minutes of work, so it only runs when asked for
// explicitly: ACTIVEDR_SPIDER_SCALE=1 go test ./internal/synth/
// -run SpiderScale.
func TestSpiderStreamScale(t *testing.T) {
	if os.Getenv("ACTIVEDR_SPIDER_SCALE") == "" {
		t.Skip("set ACTIVEDR_SPIDER_SCALE=1 to run the million-user streamed generation")
	}
	cfg := SpiderStream(0)
	path := filepath.Join(t.TempDir(), "fs.snap")
	w, err := vfs.NewSnapfileWriter(path, cfg.Taken)
	if err != nil {
		t.Fatal(err)
	}
	n, err := StreamSnapshot(cfg, func(e trace.SnapshotEntry) error {
		return w.Add(e.Path, vfs.FileMeta{User: e.User, Size: e.Size, Stripes: e.Stripes, ATime: e.ATime})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	if n < 10_000_000 {
		t.Fatalf("spider preset emitted %d files, want >= 10M", n)
	}
	// The stream holds one user's generator state; the snapfile writer
	// spools its tables to disk and keeps only the segment intern map
	// (~one segment per user). A materialized 10M-file namespace costs
	// GBs of *live* heap, so a 512 MiB ceiling on the post-GC live set
	// still proves out-of-core behaviour; the GC is forced first so
	// the measurement excludes collectable Sprintf garbage.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > 512<<20 {
		t.Fatalf("live heap at %d MiB after streamed generation", ms.HeapAlloc>>20)
	}
	sf, err := vfs.OpenSnapfile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	if sf.Count() != n {
		t.Fatalf("snapfile holds %d files, streamed %d", sf.Count(), n)
	}
}

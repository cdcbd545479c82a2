package vfs

import (
	"fmt"
	"math/rand"
	"testing"

	"activedr/internal/timeutil"
	"activedr/internal/trace"
)

// benchFiles sizes the FS micro-benchmarks: about the replay's
// namespace, small enough to rebuild between timer pauses.
const benchFiles = 100_000

const benchUsers = 512

func benchPaths(n int) []string {
	rng := rand.New(rand.NewSource(1))
	paths := make([]string, n)
	for i := range paths {
		paths[i] = fmt.Sprintf("/lustre/atlas/u%05d/proj%d/run%04d/out%06d.dat",
			i%benchUsers, rng.Intn(8), rng.Intn(2000), i)
	}
	return paths
}

func benchMeta(i int) FileMeta {
	return FileMeta{
		User:  trace.UserID(i % benchUsers),
		Size:  int64(i%4096 + 1),
		ATime: timeutil.Time(int64(i) * 300), // spread over ~a year of seconds
	}
}

func benchFS(b *testing.B, paths []string) *FS {
	b.Helper()
	fs := New()
	for i, p := range paths {
		if err := fs.Insert(p, benchMeta(i)); err != nil {
			b.Fatal(err)
		}
	}
	return fs
}

func BenchmarkFSInsert(b *testing.B) {
	paths := benchPaths(benchFiles)
	b.ReportAllocs()
	b.ResetTimer()
	var fs *FS
	for i := 0; i < b.N; i++ {
		if i%len(paths) == 0 {
			b.StopTimer()
			fs = New()
			b.StartTimer()
		}
		if err := fs.Insert(paths[i%len(paths)], benchMeta(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFSLookup(b *testing.B) {
	paths := benchPaths(benchFiles)
	fs := benchFS(b, paths)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := fs.Lookup(paths[i%len(paths)]); !ok {
			b.Fatal("missing path")
		}
	}
}

func BenchmarkFSRemove(b *testing.B) {
	paths := benchPaths(benchFiles)
	b.ReportAllocs()
	b.ResetTimer()
	var fs *FS
	for i := 0; i < b.N; i++ {
		if i%len(paths) == 0 {
			b.StopTimer()
			fs = benchFS(b, paths)
			b.StartTimer()
		}
		if _, ok := fs.Remove(paths[i%len(paths)]); !ok {
			b.Fatal("missing path")
		}
	}
}

// BenchmarkFSWalk walks a table filled in random path order, so every
// walk sorts.
func BenchmarkFSWalk(b *testing.B) {
	fs := benchFS(b, benchPaths(benchFiles))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		files := 0
		fs.Walk(func(string, FileMeta) bool { files++; return true })
		if files != benchFiles {
			b.Fatalf("walked %d files", files)
		}
	}
}

// BenchmarkStaleFiles measures the steady-state indexed candidate
// query: the first call per user compacts its buckets, every later
// call appends straight out of the compacted index.
func BenchmarkStaleFiles(b *testing.B) {
	fs := benchFS(b, benchPaths(benchFiles))
	cutoff := timeutil.Time(int64(benchFiles) * 150) // ~half the files stale
	var dst []Candidate
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := trace.UserID(i % benchUsers)
		dst = fs.AppendStaleFiles(dst[:0], u, cutoff)
	}
}

func BenchmarkFSClone(b *testing.B) {
	fs := benchFS(b, benchPaths(benchFiles))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c := fs.Clone(); c.Count() != benchFiles {
			b.Fatal("bad clone")
		}
	}
}

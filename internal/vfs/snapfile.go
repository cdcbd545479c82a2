package vfs

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"activedr/internal/fsx"
	"activedr/internal/timeutil"
	"activedr/internal/trace"
)

// Snapfile is the compact serialized snapshot format of the VFS plus
// its candidate index (DESIGN.md §15). A snapfile is built once —
// streamed out by tracegen or cmd/simulate — and reopened in O(1) via
// mmap (or paged reads where mmap is unavailable), so replay startup
// stops re-parsing TSV snapshots. Layout, all integers little-endian:
//
//	header (144 bytes)
//	  [0:8)     magic "ADRVFS1\n"
//	  [8:12)    format version (1)
//	  [12:16)   flags (reserved, zero)
//	  [16:24)   snapshot Taken timestamp, int64
//	  [24:32)   file count
//	  [32:40)   interned path-segment count
//	  [40:48)   candidate-index user count
//	  [48:52)   CRC-32C over every section byte ([144:totalSize))
//	  [52:56)   reserved (zero)
//	  [56:136)  five sections × {offset u64, length u64}:
//	            segment table, segment blob, path-id stream,
//	            file table, candidate index
//	  [136:144) total file size
//	segment table: per segment {offset u32, length u32} into the blob
//	segment blob:  concatenated segment bytes, first-seen order
//	path ids:      u32 segment-id stream; file records reference runs
//	file table:    fixed-width 32-byte records, ascending full path:
//	               {user u32, stripes u32, size i64, atime i64,
//	                pathOff u32 (u32 units), pathLen u32 (segments)}
//	candidate index: per user (ascending): {user u32, nDays u32},
//	               per day (ascending): {day i64, nEntries u32,
//	               file ids u32 × nEntries (ascending)}
//
// The total-size field makes truncation detectable at open time: any
// strict prefix of a valid snapfile fails the size check before a
// single section byte is trusted. Interior corruption is caught by
// the CRC during eager loads and by bounds checks everywhere else;
// all decode failures wrap ErrCorruptSnapfile, never panic.
const (
	snapMagic   = "ADRVFS1\n"
	snapVersion = 1
	snapHdrSize = 144
	snapRecSize = 32
	snapMaxSegs = math.MaxUint32
)

// section indexes into the header's section table.
const (
	secSegTab = iota
	secSegBlob
	secPathIDs
	secFileTab
	secIndex
	numSections
)

// ErrCorruptSnapfile tags every snapfile decode failure: truncated
// files, bad magic, out-of-bounds sections, CRC mismatches, and
// non-canonical content all wrap it.
var ErrCorruptSnapfile = errors.New("vfs: corrupt snapfile")

func corruptf(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, ErrCorruptSnapfile)...)
}

// SnapfileWriter streams a snapshot out in ascending path order with
// bounded memory: the per-file sections (path ids, file table) spool
// to temp files next to the destination, and only the segment intern
// table and the candidate-index skeleton (a few bytes per file) stay
// resident. Add must be called in strictly ascending path order;
// Finish assembles the final file durably (write, fsync, rename).
type SnapfileWriter struct {
	dst   string
	taken timeutil.Time

	segID  map[string]uint32
	segOff []uint32
	segLen []uint32
	blob   []byte

	pathSpool *os.File
	recSpool  *os.File
	pathBuf   *bufio.Writer
	recBuf    *bufio.Writer
	pathIDs   uint64
	files     uint64
	lastPath  string

	idx map[trace.UserID]*skelIndex

	scratch  []byte
	finished bool
}

// skelIndex is the in-memory skeleton of one user's serialized
// candidate index: file ids bucketed by atime day, days ascending.
type skelIndex struct {
	days    []int64
	buckets [][]uint32
}

// NewSnapfileWriter opens a streaming writer targeting path. The
// caller must Finish (or Abort) it.
func NewSnapfileWriter(path string, taken timeutil.Time) (*SnapfileWriter, error) {
	dir := filepath.Dir(path)
	pathSpool, err := os.CreateTemp(dir, ".snapfile-paths-*")
	if err != nil {
		return nil, err
	}
	recSpool, err := os.CreateTemp(dir, ".snapfile-recs-*")
	if err != nil {
		_ = closeAndRemoveTemp(pathSpool)
		return nil, err
	}
	return &SnapfileWriter{
		dst:       path,
		taken:     taken,
		segID:     make(map[string]uint32),
		pathSpool: pathSpool,
		recSpool:  recSpool,
		pathBuf:   bufio.NewWriterSize(pathSpool, 1<<16),
		recBuf:    bufio.NewWriterSize(recSpool, 1<<16),
		idx:       make(map[trace.UserID]*skelIndex),
		scratch:   make([]byte, 0, 64),
	}, nil
}

func closeAndRemoveTemp(f *os.File) error {
	name := f.Name()
	err := f.Close()
	if rerr := os.Remove(name); err == nil {
		err = rerr
	}
	return err
}

// Abort discards the writer and its spool files.
func (w *SnapfileWriter) Abort() error {
	if w.finished {
		return nil
	}
	w.finished = true
	err := closeAndRemoveTemp(w.pathSpool)
	if rerr := closeAndRemoveTemp(w.recSpool); err == nil {
		err = rerr
	}
	return err
}

// internSeg returns the id of one path segment, interning it on first
// sight. Ids are assigned in first-seen order, which the ascending
// Add order makes deterministic.
func (w *SnapfileWriter) internSeg(seg string) (uint32, error) {
	if id, ok := w.segID[seg]; ok {
		return id, nil
	}
	if uint64(len(w.segOff)) >= snapMaxSegs {
		return 0, fmt.Errorf("vfs: snapfile segment table overflow")
	}
	if len(w.blob)+len(seg) > math.MaxUint32 {
		return 0, fmt.Errorf("vfs: snapfile segment blob overflow")
	}
	id := uint32(len(w.segOff))
	w.segID[seg] = id
	w.segOff = append(w.segOff, uint32(len(w.blob)))
	w.segLen = append(w.segLen, uint32(len(seg)))
	w.blob = append(w.blob, seg...)
	return id, nil
}

// Add appends one file. Paths must arrive strictly ascending (the
// snapshot's system order); Size and User must be non-negative.
func (w *SnapfileWriter) Add(path string, m FileMeta) error {
	if w.finished {
		return errors.New("vfs: snapfile writer already finished")
	}
	if len(path) == 0 || path[0] != '/' {
		return fmt.Errorf("vfs: snapfile path %q is not absolute", path)
	}
	if m.Size < 0 {
		return fmt.Errorf("vfs: snapfile negative size for %q", path)
	}
	if m.User < 0 || m.Stripes < 0 || int64(m.Stripes) > math.MaxUint32 {
		return fmt.Errorf("vfs: snapfile user/stripes out of range for %q", path)
	}
	if w.files > 0 && path <= w.lastPath {
		return fmt.Errorf("vfs: snapfile paths out of order: %q after %q", path, w.lastPath)
	}
	if w.files >= math.MaxUint32 {
		return errors.New("vfs: snapfile file table overflow")
	}
	pathOff := w.pathIDs
	if pathOff > math.MaxUint32 {
		return errors.New("vfs: snapfile path-id stream overflow")
	}
	// Split into segments: "/a/b" → "a", "b"; empty segments round-trip.
	segs := uint32(0)
	rest := path[1:]
	for {
		cut := -1
		for i := 0; i < len(rest); i++ {
			if rest[i] == '/' {
				cut = i
				break
			}
		}
		seg := rest
		if cut >= 0 {
			seg = rest[:cut]
		}
		id, err := w.internSeg(seg)
		if err != nil {
			return err
		}
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], id)
		if _, err := w.pathBuf.Write(b[:]); err != nil {
			return err
		}
		segs++
		w.pathIDs++
		if cut < 0 {
			break
		}
		rest = rest[cut+1:]
	}
	rec := w.scratch[:snapRecSize]
	binary.LittleEndian.PutUint32(rec[0:4], uint32(m.User))
	binary.LittleEndian.PutUint32(rec[4:8], uint32(m.Stripes))
	binary.LittleEndian.PutUint64(rec[8:16], uint64(m.Size))
	binary.LittleEndian.PutUint64(rec[16:24], uint64(m.ATime))
	binary.LittleEndian.PutUint32(rec[24:28], uint32(pathOff))
	binary.LittleEndian.PutUint32(rec[28:32], segs)
	if _, err := w.recBuf.Write(rec); err != nil {
		return err
	}
	fid := uint32(w.files)
	sk := w.idx[m.User]
	if sk == nil {
		sk = &skelIndex{}
		w.idx[m.User] = sk
	}
	day := dayOf(m.ATime)
	di := len(sk.days) - 1
	if di < 0 || sk.days[di] != day {
		di = searchDays(sk.days, day)
		if di == len(sk.days) || sk.days[di] != day {
			sk.days = append(sk.days, 0)
			copy(sk.days[di+1:], sk.days[di:])
			sk.days[di] = day
			sk.buckets = append(sk.buckets, nil)
			copy(sk.buckets[di+1:], sk.buckets[di:])
			sk.buckets[di] = nil
		}
	}
	sk.buckets[di] = append(sk.buckets[di], fid)
	w.files++
	w.lastPath = path
	return nil
}

// crcWriter streams bytes to w while folding them into a CRC-32C.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, castagnoli, p[:n])
	return n, err
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Finish assembles the snapfile durably and removes the spools.
func (w *SnapfileWriter) Finish() (err error) {
	if w.finished {
		return errors.New("vfs: snapfile writer already finished")
	}
	defer func() { _ = w.Abort() }() // spool cleanup; best-effort
	if err := w.pathBuf.Flush(); err != nil {
		return err
	}
	if err := w.recBuf.Flush(); err != nil {
		return err
	}

	users := make([]trace.UserID, 0, len(w.idx))
	for u := range w.idx {
		users = append(users, u)
	}
	sort.Slice(users, func(i, j int) bool { return users[i] < users[j] })
	indexLen := uint64(0)
	for _, u := range users {
		sk := w.idx[u]
		indexLen += 8
		for _, b := range sk.buckets {
			indexLen += 12 + 4*uint64(len(b))
		}
	}

	var lens [numSections]uint64
	lens[secSegTab] = 8 * uint64(len(w.segOff))
	lens[secSegBlob] = uint64(len(w.blob))
	lens[secPathIDs] = 4 * w.pathIDs
	lens[secFileTab] = snapRecSize * w.files
	lens[secIndex] = indexLen
	var offs [numSections]uint64
	off := uint64(snapHdrSize)
	for i := range lens {
		offs[i] = off
		off += lens[i]
	}
	total := off

	hdr := make([]byte, snapHdrSize)
	copy(hdr[0:8], snapMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], snapVersion)
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(w.taken))
	binary.LittleEndian.PutUint64(hdr[24:32], w.files)
	binary.LittleEndian.PutUint64(hdr[32:40], uint64(len(w.segOff)))
	binary.LittleEndian.PutUint64(hdr[40:48], uint64(len(users)))
	for i := range lens {
		binary.LittleEndian.PutUint64(hdr[56+16*i:], offs[i])
		binary.LittleEndian.PutUint64(hdr[64+16*i:], lens[i])
	}
	binary.LittleEndian.PutUint64(hdr[136:144], total)

	dir := filepath.Dir(w.dst)
	out, err := os.CreateTemp(dir, ".snapfile-out-*")
	if err != nil {
		return err
	}
	tmpName := out.Name()
	defer func() {
		if out != nil {
			_ = out.Close()
			_ = os.Remove(tmpName)
		}
	}()
	if _, err := out.Write(hdr); err != nil {
		return err
	}
	bw := bufio.NewWriterSize(out, 1<<16)
	cw := &crcWriter{w: bw}
	var b8 [8]byte
	for i := range w.segOff {
		binary.LittleEndian.PutUint32(b8[0:4], w.segOff[i])
		binary.LittleEndian.PutUint32(b8[4:8], w.segLen[i])
		if _, err := cw.Write(b8[:]); err != nil {
			return err
		}
	}
	if _, err := cw.Write(w.blob); err != nil {
		return err
	}
	for _, spool := range []*os.File{w.pathSpool, w.recSpool} {
		if _, err := spool.Seek(0, io.SeekStart); err != nil {
			return err
		}
		if _, err := io.Copy(cw, spool); err != nil {
			return err
		}
	}
	var b12 [12]byte
	for _, u := range users {
		sk := w.idx[u]
		binary.LittleEndian.PutUint32(b8[0:4], uint32(u))
		binary.LittleEndian.PutUint32(b8[4:8], uint32(len(sk.days)))
		if _, err := cw.Write(b8[:]); err != nil {
			return err
		}
		for di, day := range sk.days {
			binary.LittleEndian.PutUint64(b12[0:8], uint64(day))
			binary.LittleEndian.PutUint32(b12[8:12], uint32(len(sk.buckets[di])))
			if _, err := cw.Write(b12[:]); err != nil {
				return err
			}
			for _, fid := range sk.buckets[di] {
				binary.LittleEndian.PutUint32(b8[0:4], fid)
				if _, err := cw.Write(b8[:4]); err != nil {
					return err
				}
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	var crcb [4]byte
	binary.LittleEndian.PutUint32(crcb[:], cw.crc)
	if _, err := out.WriteAt(crcb[:], 48); err != nil {
		return err
	}
	if err := fsx.SyncFile(out); err != nil {
		return err
	}
	if err := out.Close(); err != nil {
		out = nil
		_ = os.Remove(tmpName)
		return err
	}
	out = nil
	if err := fsx.RenameDurable(tmpName, w.dst); err != nil {
		_ = os.Remove(tmpName)
		return err
	}
	return nil
}

// WriteSnapfile streams a namespace's current state (system order
// walk) into a snapfile at path.
func WriteSnapfile(path string, ns *FS, taken timeutil.Time) error {
	w, err := NewSnapfileWriter(path, taken)
	if err != nil {
		return err
	}
	var addErr error
	ns.Walk(func(p string, m FileMeta) bool {
		addErr = w.Add(p, m)
		return addErr == nil
	})
	if addErr != nil {
		_ = w.Abort()
		return addErr
	}
	return w.Finish()
}

// WriteSnapfileFromSnapshot converts a parsed TSV metadata snapshot
// into a snapfile — the one-time conversion step; afterwards replays
// open the snapfile directly.
func WriteSnapfileFromSnapshot(path string, s *trace.Snapshot) error {
	w, err := NewSnapfileWriter(path, s.Taken)
	if err != nil {
		return err
	}
	for i := range s.Entries {
		e := &s.Entries[i]
		if err := w.Add(e.Path, FileMeta{User: e.User, Size: e.Size, Stripes: e.Stripes, ATime: e.ATime}); err != nil {
			_ = w.Abort()
			return err
		}
	}
	return w.Finish()
}

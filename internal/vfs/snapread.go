package vfs

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"os"

	"activedr/internal/fsx"
	"activedr/internal/timeutil"
	"activedr/internal/trace"
)

// blob abstracts how an open snapfile's bytes are reached: zero-copy
// out of an mmap, or paged ReadAt calls against the file (the
// portable fallback, and an explicit option for address-space-
// constrained callers).
type blob interface {
	// slice returns n bytes at off. Mmap-backed blobs return a
	// subslice of the mapping (valid until close); file-backed blobs
	// allocate.
	slice(off int64, n int) ([]byte, error)
	// sectionReader streams [off, off+n) for sequential decoding.
	sectionReader(off, n int64) io.Reader
	close() error
}

type mmapBlob struct {
	data  []byte
	unmap func() error
	f     *os.File
}

func (b *mmapBlob) slice(off int64, n int) ([]byte, error) {
	if off < 0 || n < 0 || off+int64(n) > int64(len(b.data)) {
		return nil, corruptf("vfs: snapfile read [%d,+%d) out of bounds", off, n)
	}
	return b.data[off : off+int64(n)], nil
}

func (b *mmapBlob) sectionReader(off, n int64) io.Reader {
	if off < 0 || n < 0 || off+n > int64(len(b.data)) {
		return bytes.NewReader(nil)
	}
	return bytes.NewReader(b.data[off : off+n])
}

func (b *mmapBlob) close() error {
	err := b.unmap()
	if cerr := b.f.Close(); err == nil {
		err = cerr
	}
	return err
}

type fileBlob struct {
	f    *os.File
	size int64
}

func (b *fileBlob) slice(off int64, n int) ([]byte, error) {
	if off < 0 || n < 0 || off+int64(n) > b.size {
		return nil, corruptf("vfs: snapfile read [%d,+%d) out of bounds", off, n)
	}
	buf := make([]byte, n)
	if _, err := b.f.ReadAt(buf, off); err != nil {
		return nil, corruptf("vfs: snapfile read at %d: %v", off, err)
	}
	return buf, nil
}

func (b *fileBlob) sectionReader(off, n int64) io.Reader {
	return io.NewSectionReader(b.f, off, n)
}

func (b *fileBlob) close() error { return b.f.Close() }

// SnapfileOpenOptions tunes OpenSnapfileWith.
type SnapfileOpenOptions struct {
	// PagedReads forces the ReadAt-backed blob even where mmap is
	// available.
	PagedReads bool
}

// SnapshotFile is an open snapfile: an O(1)-validated header over a
// lazily faulted byte blob. Reads are safe without loading anything —
// Lookup binary-searches the on-disk file table — and the Load*
// functions materialize a full in-memory namespace from it. Not safe
// for concurrent use (the segment table memoizes lazily).
type SnapshotFile struct {
	b     blob
	taken timeutil.Time
	files int
	nsegs int
	users int
	offs  [numSections]int64
	lens  [numSections]int64
	crc   uint32
	segs  []string // lazily decoded segment table
}

// OpenSnapfile opens path via mmap, falling back to paged reads when
// mapping is unavailable. The open is O(1): it validates the header
// and section bounds, faulting in pages only as they are touched.
func OpenSnapfile(path string) (*SnapshotFile, error) {
	return OpenSnapfileWith(path, SnapfileOpenOptions{})
}

// OpenSnapfileWith is OpenSnapfile with explicit options.
func OpenSnapfileWith(path string, opts SnapfileOpenOptions) (*SnapshotFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	var b blob
	if !opts.PagedReads && fsx.MmapSupported {
		data, unmap, merr := fsx.Mmap(f, st.Size())
		if merr == nil {
			b = &mmapBlob{data: data, unmap: unmap, f: f}
		}
	}
	if b == nil {
		b = &fileBlob{f: f, size: st.Size()}
	}
	sf, err := parseSnapHeader(b, st.Size())
	if err != nil {
		_ = b.close()
		return nil, err
	}
	return sf, nil
}

func parseSnapHeader(b blob, size int64) (*SnapshotFile, error) {
	if size < snapHdrSize {
		return nil, corruptf("vfs: snapfile too short (%d bytes)", size)
	}
	hdr, err := b.slice(0, snapHdrSize)
	if err != nil {
		return nil, err
	}
	if string(hdr[0:8]) != snapMagic {
		return nil, corruptf("vfs: snapfile bad magic")
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != snapVersion {
		return nil, corruptf("vfs: snapfile version %d (want %d)", v, snapVersion)
	}
	total := binary.LittleEndian.Uint64(hdr[136:144])
	if total != uint64(size) {
		return nil, corruptf("vfs: snapfile truncated: header says %d bytes, file has %d", total, size)
	}
	files := binary.LittleEndian.Uint64(hdr[24:32])
	nsegs := binary.LittleEndian.Uint64(hdr[32:40])
	users := binary.LittleEndian.Uint64(hdr[40:48])
	if files > math.MaxUint32 || nsegs > math.MaxUint32 || users > files {
		return nil, corruptf("vfs: snapfile counts out of range (files=%d segs=%d users=%d)", files, nsegs, users)
	}
	sf := &SnapshotFile{
		b:     b,
		taken: timeutil.Time(int64(binary.LittleEndian.Uint64(hdr[16:24]))),
		files: int(files),
		nsegs: int(nsegs),
		users: int(users),
		crc:   binary.LittleEndian.Uint32(hdr[48:52]),
	}
	want := uint64(snapHdrSize)
	for i := 0; i < numSections; i++ {
		off := binary.LittleEndian.Uint64(hdr[56+16*i:])
		n := binary.LittleEndian.Uint64(hdr[64+16*i:])
		// Sections are contiguous in declaration order; enforcing that
		// also proves no overlap and no overflow.
		if off != want || n > total-off {
			return nil, corruptf("vfs: snapfile section %d out of bounds (off=%d len=%d)", i, off, n)
		}
		want = off + n
		sf.offs[i] = int64(off)
		sf.lens[i] = int64(n)
	}
	if want != total {
		return nil, corruptf("vfs: snapfile sections do not cover the file (%d != %d)", want, total)
	}
	if sf.lens[secSegTab] != 8*int64(nsegs) {
		return nil, corruptf("vfs: snapfile segment table length %d (want %d)", sf.lens[secSegTab], 8*nsegs)
	}
	if sf.lens[secFileTab] != snapRecSize*int64(files) {
		return nil, corruptf("vfs: snapfile file table length %d (want %d)", sf.lens[secFileTab], snapRecSize*files)
	}
	if sf.lens[secPathIDs]%4 != 0 || sf.lens[secPathIDs]/4 < int64(files) && files > 0 {
		return nil, corruptf("vfs: snapfile path-id stream length %d invalid", sf.lens[secPathIDs])
	}
	return sf, nil
}

// Taken returns the snapshot timestamp recorded in the header.
func (sf *SnapshotFile) Taken() timeutil.Time { return sf.taken }

// Count returns the number of file records.
func (sf *SnapshotFile) Count() int { return sf.files }

// Close releases the mapping or file handle.
func (sf *SnapshotFile) Close() error { return sf.b.close() }

// verifyCRC streams every section byte through CRC-32C and compares
// with the header. Called by the eager loaders (one extra sequential
// pass); the O(1)-open and Lookup paths skip it and rely on bounds
// checks alone.
func (sf *SnapshotFile) verifyCRC() error {
	r := sf.b.sectionReader(snapHdrSize, sf.offs[numSections-1]+sf.lens[numSections-1]-snapHdrSize)
	crc := uint32(0)
	buf := make([]byte, 1<<20)
	for {
		n, err := r.Read(buf)
		crc = crc32.Update(crc, castagnoli, buf[:n])
		if err == io.EOF {
			break
		}
		if err != nil {
			return corruptf("vfs: snapfile crc read: %v", err)
		}
	}
	if crc != sf.crc {
		return corruptf("vfs: snapfile crc mismatch (stored %08x, computed %08x)", sf.crc, crc)
	}
	return nil
}

// ensureSegs decodes the segment table once.
func (sf *SnapshotFile) ensureSegs() error {
	if sf.segs != nil || sf.nsegs == 0 {
		return nil
	}
	tab, err := sf.b.slice(sf.offs[secSegTab], int(sf.lens[secSegTab]))
	if err != nil {
		return err
	}
	blobLen := sf.lens[secSegBlob]
	segs := make([]string, sf.nsegs)
	for i := 0; i < sf.nsegs; i++ {
		off := binary.LittleEndian.Uint32(tab[8*i:])
		n := binary.LittleEndian.Uint32(tab[8*i+4:])
		if int64(off)+int64(n) > blobLen {
			return corruptf("vfs: snapfile segment %d out of blob bounds", i)
		}
		raw, err := sf.b.slice(sf.offs[secSegBlob]+int64(off), int(n))
		if err != nil {
			return err
		}
		segs[i] = string(raw)
	}
	sf.segs = segs
	return nil
}

// record decodes file record i without touching its path.
func (sf *SnapshotFile) record(i int) (m FileMeta, pathOff, pathLen uint32, err error) {
	rec, err := sf.b.slice(sf.offs[secFileTab]+int64(i)*snapRecSize, snapRecSize)
	if err != nil {
		return FileMeta{}, 0, 0, err
	}
	user := binary.LittleEndian.Uint32(rec[0:4])
	stripes := binary.LittleEndian.Uint32(rec[4:8])
	size := int64(binary.LittleEndian.Uint64(rec[8:16]))
	atime := int64(binary.LittleEndian.Uint64(rec[16:24]))
	pathOff = binary.LittleEndian.Uint32(rec[24:28])
	pathLen = binary.LittleEndian.Uint32(rec[28:32])
	if user > math.MaxInt32 || size < 0 || int64(pathOff)+int64(pathLen) > sf.lens[secPathIDs]/4 || pathLen == 0 {
		return FileMeta{}, 0, 0, corruptf("vfs: snapfile record %d invalid", i)
	}
	m = FileMeta{
		User:    trace.UserID(int32(user)),
		Size:    size,
		Stripes: int(stripes),
		ATime:   timeutil.Time(atime),
	}
	return m, pathOff, pathLen, nil
}

// appendPath reconstructs record i's path into dst.
func (sf *SnapshotFile) appendPath(dst []byte, pathOff, pathLen uint32) ([]byte, error) {
	if err := sf.ensureSegs(); err != nil {
		return dst, err
	}
	ids, err := sf.b.slice(sf.offs[secPathIDs]+4*int64(pathOff), 4*int(pathLen))
	if err != nil {
		return dst, err
	}
	for k := uint32(0); k < pathLen; k++ {
		id := binary.LittleEndian.Uint32(ids[4*k:])
		if int(id) >= len(sf.segs) {
			return dst, corruptf("vfs: snapfile segment id %d out of range", id)
		}
		dst = append(dst, '/')
		dst = append(dst, sf.segs[id]...)
	}
	return dst, nil
}

// Entry returns record i's path and metadata straight off the blob.
func (sf *SnapshotFile) Entry(i int) (string, FileMeta, error) {
	if i < 0 || i >= sf.files {
		return "", FileMeta{}, corruptf("vfs: snapfile entry %d out of range", i)
	}
	m, po, pl, err := sf.record(i)
	if err != nil {
		return "", FileMeta{}, err
	}
	p, err := sf.appendPath(nil, po, pl)
	if err != nil {
		return "", FileMeta{}, err
	}
	return string(p), m, nil
}

// Lookup binary-searches the on-disk file table for path — an
// out-of-core point query: O(log n) record probes, no load, no tree.
func (sf *SnapshotFile) Lookup(path string) (FileMeta, bool, error) {
	lo, hi := 0, sf.files
	var buf []byte
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		m, po, pl, err := sf.record(mid)
		if err != nil {
			return FileMeta{}, false, err
		}
		buf, err = sf.appendPath(buf[:0], po, pl)
		if err != nil {
			return FileMeta{}, false, err
		}
		switch bytes.Compare(buf, []byte(path)) {
		case 0:
			return m, true, nil
		case -1:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return FileMeta{}, false, nil
}

// snapDecoder streams the per-file sections in parallel, handing the
// loaders one (path, meta) pair at a time in ascending path order.
type snapDecoder struct {
	sf      *SnapshotFile
	recs    *bufio.Reader
	ids     *bufio.Reader
	pathIDs int64 // u32s consumed from the path-id stream
	last    []byte
	path    []byte
	rec     [snapRecSize]byte
	id4     [4]byte
}

func (sf *SnapshotFile) newDecoder() *snapDecoder {
	return &snapDecoder{
		sf:   sf,
		recs: bufio.NewReaderSize(sf.b.sectionReader(sf.offs[secFileTab], sf.lens[secFileTab]), 1<<16),
		ids:  bufio.NewReaderSize(sf.b.sectionReader(sf.offs[secPathIDs], sf.lens[secPathIDs]), 1<<16),
	}
}

// next decodes file record i; paths must be strictly ascending and
// the path-id runs contiguous (the canonical layout the writer
// emits).
func (d *snapDecoder) next(i int) (string, FileMeta, error) {
	if _, err := io.ReadFull(d.recs, d.rec[:]); err != nil {
		return "", FileMeta{}, corruptf("vfs: snapfile record %d: %v", i, err)
	}
	user := binary.LittleEndian.Uint32(d.rec[0:4])
	stripes := binary.LittleEndian.Uint32(d.rec[4:8])
	size := int64(binary.LittleEndian.Uint64(d.rec[8:16]))
	atime := int64(binary.LittleEndian.Uint64(d.rec[16:24]))
	pathOff := binary.LittleEndian.Uint32(d.rec[24:28])
	pathLen := binary.LittleEndian.Uint32(d.rec[28:32])
	if user > math.MaxInt32 || size < 0 || pathLen == 0 {
		return "", FileMeta{}, corruptf("vfs: snapfile record %d invalid", i)
	}
	if int64(pathOff) != d.pathIDs || int64(pathOff)+int64(pathLen) > d.sf.lens[secPathIDs]/4 {
		return "", FileMeta{}, corruptf("vfs: snapfile record %d path run not contiguous", i)
	}
	d.path = d.path[:0]
	for k := uint32(0); k < pathLen; k++ {
		if _, err := io.ReadFull(d.ids, d.id4[:]); err != nil {
			return "", FileMeta{}, corruptf("vfs: snapfile path ids of record %d: %v", i, err)
		}
		id := binary.LittleEndian.Uint32(d.id4[:])
		if int(id) >= len(d.sf.segs) {
			return "", FileMeta{}, corruptf("vfs: snapfile segment id %d out of range", id)
		}
		d.path = append(d.path, '/')
		d.path = append(d.path, d.sf.segs[id]...)
	}
	d.pathIDs += int64(pathLen)
	if i > 0 && bytes.Compare(d.path, d.last) <= 0 {
		return "", FileMeta{}, corruptf("vfs: snapfile paths out of order at record %d", i)
	}
	d.last = append(d.last[:0], d.path...)
	m := FileMeta{
		User:    trace.UserID(int32(user)),
		Size:    size,
		Stripes: int(stripes),
		ATime:   timeutil.Time(atime),
	}
	return string(d.path), m, nil
}

// LoadSnapfileFS materializes a single-tree FS (tree, accounting, and
// candidate index) from an open snapfile. The index section is loaded
// as straight fills — no per-entry day search — leaving exactly the
// state FromSnapshot would have built from the equivalent TSV
// snapshot.
func LoadSnapfileFS(sf *SnapshotFile) (*FS, error) {
	if err := sf.verifyCRC(); err != nil {
		return nil, err
	}
	if err := sf.ensureSegs(); err != nil {
		return nil, err
	}
	f := New()
	nodes := make([]*rnode[fileRecord], sf.files)
	dec := sf.newDecoder()
	for i := 0; i < sf.files; i++ {
		path, m, err := dec.next(i)
		if err != nil {
			return nil, err
		}
		n, _, _ := f.tree.put(path, fileRecord{meta: m, path: path})
		f.bytes += m.Size
		f.userBytes[m.User] += m.Size
		f.userFiles[m.User]++
		nodes[i] = n
	}
	if err := loadSnapIndex(sf, f, nodes); err != nil {
		return nil, err
	}
	return f, nil
}

// loadSnapIndex decodes the candidate-index section into f's userIndex
// structures, validating that it is the canonical rebuild of the file
// table (every file exactly once, under its owner, in its atime's day
// bucket, file ids ascending).
func loadSnapIndex(sf *SnapshotFile, f *FS, nodes []*rnode[fileRecord]) error {
	r := bufio.NewReaderSize(sf.b.sectionReader(sf.offs[secIndex], sf.lens[secIndex]), 1<<16)
	var b12 [12]byte
	entries := 0
	lastUser := int64(-1)
	for ui := 0; ui < sf.users; ui++ {
		if _, err := io.ReadFull(r, b12[:8]); err != nil {
			return corruptf("vfs: snapfile index user %d: %v", ui, err)
		}
		user := binary.LittleEndian.Uint32(b12[0:4])
		nDays := binary.LittleEndian.Uint32(b12[4:8])
		if user > math.MaxInt32 || int64(user) <= lastUser {
			return corruptf("vfs: snapfile index users out of order at %d", ui)
		}
		lastUser = int64(user)
		u := trace.UserID(int32(user))
		lastDay := int64(math.MinInt64)
		for di := uint32(0); di < nDays; di++ {
			if _, err := io.ReadFull(r, b12[:]); err != nil {
				return corruptf("vfs: snapfile index day of user %d: %v", user, err)
			}
			day := int64(binary.LittleEndian.Uint64(b12[0:8]))
			n := binary.LittleEndian.Uint32(b12[8:12])
			if day <= lastDay && !(di == 0 && day == math.MinInt64) {
				return corruptf("vfs: snapfile index days out of order for user %d", user)
			}
			lastDay = day
			lastFid := int64(-1)
			for k := uint32(0); k < n; k++ {
				if _, err := io.ReadFull(r, b12[:4]); err != nil {
					return corruptf("vfs: snapfile index entry of user %d: %v", user, err)
				}
				fid := binary.LittleEndian.Uint32(b12[0:4])
				if int64(fid) <= lastFid || int(fid) >= len(nodes) {
					return corruptf("vfs: snapfile index file ids invalid for user %d", user)
				}
				lastFid = int64(fid)
				rec := &nodes[fid].value
				if rec.meta.User != u || dayOf(rec.meta.ATime) != day {
					return corruptf("vfs: snapfile index entry %d contradicts record", fid)
				}
				uidx := f.index[u]
				if uidx == nil {
					uidx = &userIndex{}
					f.index[u] = uidx
				}
				// Days arrive ascending, so registering a day is a pure
				// append; entries land in file-id (= path) order, the
				// same bucket order FromSnapshot's inserts produce.
				if ld := len(uidx.days); ld == 0 || uidx.days[ld-1] != day {
					uidx.days = append(uidx.days, day)
					uidx.buckets = append(uidx.buckets, nil)
					uidx.compacted = append(uidx.compacted, false)
					uidx.skip = append(uidx.skip, 0)
				}
				bi := len(uidx.buckets) - 1
				uidx.buckets[bi] = append(uidx.buckets[bi], idxEntry{
					path:  rec.path,
					atime: rec.meta.ATime,
					node:  nodes[fid],
				})
				entries++
			}
		}
	}
	if entries != sf.files {
		return corruptf("vfs: snapfile index covers %d of %d files", entries, sf.files)
	}
	// The section length must be exactly consumed.
	if n, _ := r.Read(b12[:1]); n != 0 {
		return corruptf("vfs: snapfile index has trailing bytes")
	}
	return nil
}

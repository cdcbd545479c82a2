package vfs

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"os"

	"activedr/internal/timeutil"
	"activedr/internal/trace"
)

// SnapshotFile is an open snapfile: its file handle and a header
// validated in O(1). LoadSnapfileFS decodes it into a namespace in one
// sequential pass.
type SnapshotFile struct {
	f     *os.File
	taken timeutil.Time
	files int
	nsegs int
	users int
	offs  [numSections]int64
	lens  [numSections]int64
	crc   uint32
}

// OpenSnapfile opens path. The open is O(1): it reads the header and
// validates it and the section bounds against the file size.
func OpenSnapfile(path string) (*SnapshotFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	sf, err := parseSnapHeader(f, st.Size())
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	return sf, nil
}

func parseSnapHeader(f *os.File, size int64) (*SnapshotFile, error) {
	if size < snapHdrSize {
		return nil, corruptf("vfs: snapfile too short (%d bytes)", size)
	}
	hdr := make([]byte, snapHdrSize)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return nil, corruptf("vfs: snapfile header read: %v", err)
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
		f:     f,
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

// Close releases the file handle.
func (sf *SnapshotFile) Close() error { return sf.f.Close() }

// section streams section sec's bytes.
func (sf *SnapshotFile) section(sec int) *io.SectionReader {
	return io.NewSectionReader(sf.f, sf.offs[sec], sf.lens[sec])
}

// readSection reads section sec whole.
func (sf *SnapshotFile) readSection(sec int) ([]byte, error) {
	buf := make([]byte, sf.lens[sec])
	if _, err := sf.f.ReadAt(buf, sf.offs[sec]); err != nil {
		return nil, corruptf("vfs: snapfile section %d read: %v", sec, err)
	}
	return buf, nil
}

// verifyCRC streams every section byte through CRC-32C and compares
// with the header: one sequential pass before decoding.
func (sf *SnapshotFile) verifyCRC() error {
	h := crc32.New(castagnoli)
	body := io.NewSectionReader(sf.f, snapHdrSize, sf.offs[secIndex]+sf.lens[secIndex]-snapHdrSize)
	if _, err := io.CopyBuffer(h, body, make([]byte, 1<<20)); err != nil {
		return corruptf("vfs: snapfile crc read: %v", err)
	}
	if crc := h.Sum32(); crc != sf.crc {
		return corruptf("vfs: snapfile crc mismatch (stored %08x, computed %08x)", sf.crc, crc)
	}
	return nil
}

// readSegs decodes the segment table, reading the table and the
// segment blob with one ReadAt each.
func (sf *SnapshotFile) readSegs() ([]string, error) {
	tab, err := sf.readSection(secSegTab)
	if err != nil {
		return nil, err
	}
	blob, err := sf.readSection(secSegBlob)
	if err != nil {
		return nil, err
	}
	segs := make([]string, sf.nsegs)
	for i := range segs {
		off := int64(binary.LittleEndian.Uint32(tab[8*i:]))
		n := int64(binary.LittleEndian.Uint32(tab[8*i+4:]))
		if off+n > int64(len(blob)) {
			return nil, corruptf("vfs: snapfile segment %d out of blob bounds", i)
		}
		segs[i] = string(blob[off : off+n])
	}
	return segs, nil
}

// snapDecoder streams the per-file sections in parallel, handing the
// loaders one (path, meta) pair at a time in ascending path order.
type snapDecoder struct {
	segs    []string
	recs    *bufio.Reader
	ids     *bufio.Reader
	pathIDs int64 // u32s consumed from the path-id stream
	maxIDs  int64 // u32s in the path-id stream
	last    []byte
	path    []byte
	rec     [snapRecSize]byte
	id4     [4]byte
}

func (sf *SnapshotFile) newDecoder(segs []string) *snapDecoder {
	return &snapDecoder{
		segs:   segs,
		recs:   bufio.NewReaderSize(sf.section(secFileTab), 1<<16),
		ids:    bufio.NewReaderSize(sf.section(secPathIDs), 1<<16),
		maxIDs: sf.lens[secPathIDs] / 4,
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
	if int64(pathOff) != d.pathIDs || int64(pathOff)+int64(pathLen) > d.maxIDs {
		return "", FileMeta{}, corruptf("vfs: snapfile record %d path run not contiguous", i)
	}
	d.path = d.path[:0]
	for k := uint32(0); k < pathLen; k++ {
		if _, err := io.ReadFull(d.ids, d.id4[:]); err != nil {
			return "", FileMeta{}, corruptf("vfs: snapfile path ids of record %d: %v", i, err)
		}
		id := binary.LittleEndian.Uint32(d.id4[:])
		if int(id) >= len(d.segs) {
			return "", FileMeta{}, corruptf("vfs: snapfile segment id %d out of range", id)
		}
		d.path = append(d.path, '/')
		d.path = append(d.path, d.segs[id]...)
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

// LoadSnapfileFS materializes a private FS (record table, accounting,
// and candidate index) from an open snapfile. File id i becomes record
// id i, so the slab is in path order, and the index section is loaded
// as straight fills — no per-entry day search — leaving the files,
// accounting and index order FromSnapshot would have built from the
// equivalent TSV snapshot.
func LoadSnapfileFS(sf *SnapshotFile) (*FS, error) {
	if err := sf.verifyCRC(); err != nil {
		return nil, err
	}
	segs, err := sf.readSegs()
	if err != nil {
		return nil, err
	}
	f := newFS(sf.files)
	dec := sf.newDecoder(segs)
	for i := 0; i < sf.files; i++ {
		path, m, err := dec.next(i)
		if err != nil {
			return nil, err
		}
		f.tab.add(path, m) // paths ascend strictly, so each is new
		f.bytes += m.Size
		f.userBytes[m.User] += m.Size
		f.userFiles[m.User]++
	}
	if err := loadSnapIndex(sf, f); err != nil {
		return nil, err
	}
	return f, nil
}

// loadSnapIndex decodes the candidate-index section into f's userIndex
// structures, validating that it is the canonical rebuild of the file
// table (every file exactly once, under its owner, in its atime's day
// bucket, file ids ascending). File id i is f's record id i.
func loadSnapIndex(sf *SnapshotFile, f *FS) error {
	recs := f.tab.recs
	r := bufio.NewReaderSize(sf.section(secIndex), 1<<16)
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
				if int64(fid) <= lastFid || int(fid) >= len(recs) {
					return corruptf("vfs: snapfile index file ids invalid for user %d", user)
				}
				lastFid = int64(fid)
				rec := &recs[fid]
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
					id:    int32(fid),
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

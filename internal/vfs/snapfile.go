package vfs

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"strings"

	"activedr/internal/fsx"
	"activedr/internal/trace"
)

// Snapfile is the compact serialized snapshot format of the VFS plus
// its candidate index (DESIGN.md §15). A snapfile is built once —
// encoded in memory from a snapshot by tracegen or cmd/simulate and
// published with one durable write — then opened with an O(1) header
// check and loaded in one sequential pass, so replay startup stops
// re-parsing TSV snapshots. Layout, all integers little-endian:
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
// the CRC the loader checks before it decodes anything; all decode
// failures wrap ErrCorruptSnapfile, never panic.
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

// castagnoli is the CRC-32C table of the header's section checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// WriteSnapfileFromSnapshot encodes a metadata snapshot as a snapfile
// and publishes it at path with one durable write (write, fsync,
// rename, directory fsync). Entries must be in strictly ascending path
// order (the snapshot's system order), with absolute paths and
// non-negative sizes; a rejected snapshot writes nothing.
func WriteSnapfileFromSnapshot(path string, s *trace.Snapshot) error {
	data, err := encodeSnapfile(s)
	if err != nil {
		return err
	}
	return fsx.WriteFileAtomic(path, data, 0o644)
}

// encodeSnapfile builds the whole snapfile in memory: one pass interns
// path segments (ids in first-seen order, which the ascending entry
// order makes deterministic) and fills the per-file sections, then
// the header and the candidate index are laid out around them.
func encodeSnapfile(s *trace.Snapshot) ([]byte, error) {
	segID := make(map[string]uint32)
	var segTab, blob, pathIDs, fileTab []byte
	byUser := make(map[trace.UserID][]uint32) // file ids, ascending
	le := binary.LittleEndian
	for i := range s.Entries {
		e := &s.Entries[i]
		if len(e.Path) == 0 || e.Path[0] != '/' {
			return nil, fmt.Errorf("vfs: snapfile path %q is not absolute", e.Path)
		}
		if e.Size < 0 {
			return nil, fmt.Errorf("vfs: snapfile negative size for %q", e.Path)
		}
		if e.User < 0 || e.Stripes < 0 || int64(e.Stripes) > math.MaxUint32 {
			return nil, fmt.Errorf("vfs: snapfile user/stripes out of range for %q", e.Path)
		}
		if i > 0 && e.Path <= s.Entries[i-1].Path {
			return nil, fmt.Errorf("vfs: snapfile paths out of order: %q after %q", e.Path, s.Entries[i-1].Path)
		}
		if uint64(i) >= math.MaxUint32 {
			return nil, errors.New("vfs: snapfile file table overflow")
		}
		pathOff := len(pathIDs) / 4
		if uint64(pathOff) > math.MaxUint32 {
			return nil, errors.New("vfs: snapfile path-id stream overflow")
		}
		// Split into segments: "/a/b" → "a", "b"; empty segments round-trip.
		segs := uint32(0)
		for rest, more := e.Path[1:], true; more; segs++ {
			var seg string
			seg, rest, more = strings.Cut(rest, "/")
			id, ok := segID[seg]
			if !ok {
				if uint64(len(segID)) >= snapMaxSegs {
					return nil, errors.New("vfs: snapfile segment table overflow")
				}
				if len(blob)+len(seg) > math.MaxUint32 {
					return nil, errors.New("vfs: snapfile segment blob overflow")
				}
				id = uint32(len(segID))
				segID[seg] = id
				segTab = le.AppendUint32(segTab, uint32(len(blob)))
				segTab = le.AppendUint32(segTab, uint32(len(seg)))
				blob = append(blob, seg...)
			}
			pathIDs = le.AppendUint32(pathIDs, id)
		}
		fileTab = le.AppendUint32(fileTab, uint32(e.User))
		fileTab = le.AppendUint32(fileTab, uint32(e.Stripes))
		fileTab = le.AppendUint64(fileTab, uint64(e.Size))
		fileTab = le.AppendUint64(fileTab, uint64(e.ATime))
		fileTab = le.AppendUint32(fileTab, uint32(pathOff))
		fileTab = le.AppendUint32(fileTab, segs)
		byUser[e.User] = append(byUser[e.User], uint32(i))
	}

	// Candidate index: users ascending, each user's files bucketed by
	// atime day, days ascending and file ids ascending within a day
	// (the sort is stable over ids appended in order).
	var index []byte
	users := make([]trace.UserID, 0, len(byUser))
	for u := range byUser {
		users = append(users, u)
	}
	slices.Sort(users)
	for _, u := range users {
		fids := byUser[u]
		slices.SortStableFunc(fids, func(a, b uint32) int {
			return cmp.Compare(dayOf(s.Entries[a].ATime), dayOf(s.Entries[b].ATime))
		})
		dayAt := func(k int) int64 { return dayOf(s.Entries[fids[k]].ATime) }
		nDays := 0
		for k := range fids {
			if k == 0 || dayAt(k) != dayAt(k-1) {
				nDays++
			}
		}
		index = le.AppendUint32(index, uint32(u))
		index = le.AppendUint32(index, uint32(nDays))
		for k := 0; k < len(fids); {
			end := k + 1
			for end < len(fids) && dayAt(end) == dayAt(k) {
				end++
			}
			index = le.AppendUint64(index, uint64(dayAt(k)))
			index = le.AppendUint32(index, uint32(end-k))
			for _, fid := range fids[k:end] {
				index = le.AppendUint32(index, fid)
			}
			k = end
		}
	}

	sections := [numSections][]byte{secSegTab: segTab, secSegBlob: blob, secPathIDs: pathIDs, secFileTab: fileTab, secIndex: index}
	total := uint64(snapHdrSize)
	for _, sec := range sections {
		total += uint64(len(sec))
	}
	buf := make([]byte, snapHdrSize, total)
	copy(buf[0:8], snapMagic)
	le.PutUint32(buf[8:12], snapVersion)
	le.PutUint64(buf[16:24], uint64(s.Taken))
	le.PutUint64(buf[24:32], uint64(len(s.Entries)))
	le.PutUint64(buf[32:40], uint64(len(segID)))
	le.PutUint64(buf[40:48], uint64(len(users)))
	for i, sec := range sections {
		le.PutUint64(buf[56+16*i:], uint64(len(buf)))
		le.PutUint64(buf[64+16*i:], uint64(len(sec)))
		buf = append(buf, sec...)
	}
	le.PutUint64(buf[136:144], total)
	le.PutUint32(buf[48:52], crc32.Checksum(buf[snapHdrSize:], castagnoli))
	return buf, nil
}

package wal

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"activedr/internal/faults"
)

// fill appends n short records and syncs; returns the payloads.
func fill(t *testing.T, l *Log, n int, prefix string) [][]byte {
	t.Helper()
	var payloads [][]byte
	for i := 0; i < n; i++ {
		p := []byte(fmt.Sprintf("%s-%04d", prefix, i))
		seq, err := l.Append(p)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if want := l.LastSeq(); seq != want {
			t.Fatalf("append %d returned seq %d, LastSeq %d", i, seq, want)
		}
		payloads = append(payloads, p)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	return payloads
}

// collect replays records after the given sequence into a slice.
func collect(t *testing.T, l *Log, after uint64) (seqs []uint64, payloads []string) {
	t.Helper()
	err := l.Replay(after, func(seq uint64, p []byte) error {
		seqs = append(seqs, seq)
		payloads = append(payloads, string(p))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return seqs, payloads
}

func TestAppendReopenReplay(t *testing.T) {
	dir := t.TempDir()
	l, info, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 0 || info.LastSeq != 0 {
		t.Fatalf("fresh log recovered %+v", info)
	}
	want := fill(t, l, 25, "ev")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, info, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 25 || info.FirstSeq != 1 || info.LastSeq != 25 || info.TornBytes != 0 {
		t.Fatalf("recovery info %+v", info)
	}
	seqs, payloads := collect(t, l2, 0)
	if len(seqs) != 25 || seqs[0] != 1 || seqs[24] != 25 {
		t.Fatalf("replayed seqs %v", seqs)
	}
	for i, p := range payloads {
		if p != string(want[i]) {
			t.Fatalf("record %d payload %q, want %q", i, p, want[i])
		}
	}
	// Replay-after skips the prefix exactly.
	seqs, _ = collect(t, l2, 20)
	if len(seqs) != 5 || seqs[0] != 21 {
		t.Fatalf("replay after 20: %v", seqs)
	}
	// Appends continue the sequence.
	seq, err := l2.Append([]byte("more"))
	if err != nil || seq != 26 {
		t.Fatalf("append after reopen: seq=%d err=%v", seq, err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentRollAndPrune(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 64}) // a few records per segment
	if err != nil {
		t.Fatal(err)
	}
	fill(t, l, 40, "roll")
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("only %d segments after 40 appends at 64-byte roll", len(segs))
	}

	if err := l.Prune(20); err != nil {
		t.Fatal(err)
	}
	if l.first > 21 {
		t.Fatalf("prune(20) removed live records: first=%d", l.first)
	}
	// Everything after the checkpoint is still replayable…
	seqs, _ := collect(t, l, 20)
	if len(seqs) != 20 || seqs[0] != 21 || seqs[19] != 40 {
		t.Fatalf("post-prune replay: %d seqs, first %d", len(seqs), seqs[0])
	}
	// …and reopening the pruned log still works.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, info, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	if info.LastSeq != 40 {
		t.Fatalf("pruned reopen: %+v", info)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestAppendRejectsBadPayloads(t *testing.T) {
	l, _, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(nil); err == nil {
		t.Error("empty payload accepted")
	}
	if _, err := l.Append(make([]byte, MaxRecord+1)); err == nil {
		t.Error("oversized payload accepted")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("append after close: %v", err)
	}
}

// TestRecoverEveryTruncationPoint is the satellite-3 property test:
// cut the tail segment at EVERY byte offset; Open must either recover
// the clean prefix (exactly the records fully contained in the cut)
// or report a typed corruption error — never panic, never resurrect a
// partial record, never double-count.
func TestRecoverEveryTruncationPoint(t *testing.T) {
	master := t.TempDir()
	l, _, err := Open(master, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, l, 8, "trunc") // single segment: every byte offset is a tail cut
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(master)
	if err != nil || len(segs) != 1 {
		t.Fatalf("want 1 segment, got %d (%v)", len(segs), err)
	}
	data, err := os.ReadFile(filepath.Join(master, segs[0].name))
	if err != nil {
		t.Fatal(err)
	}

	// Record boundaries, so each cut's expected survivor count is known.
	bounds := []int64{0}
	if err := l.Replay(0, func(seq uint64, p []byte) error {
		bounds = append(bounds, bounds[len(bounds)-1]+headerSize+int64(len(p)))
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(data); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segs[0].name), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		lt, info, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut=%d: open: %v", cut, err)
		}
		survivors := uint64(0)
		for _, b := range bounds[1:] {
			if int64(cut) >= b {
				survivors++
			}
		}
		if info.Records != survivors {
			t.Fatalf("cut=%d: recovered %d records, want %d", cut, info.Records, survivors)
		}
		seqs, payloads := collect(t, lt, 0)
		if uint64(len(seqs)) != survivors {
			t.Fatalf("cut=%d: replayed %d records, want %d", cut, len(seqs), survivors)
		}
		for i := range seqs {
			if seqs[i] != uint64(i+1) {
				t.Fatalf("cut=%d: seq[%d]=%d", cut, i, seqs[i])
			}
			if want := fmt.Sprintf("trunc-%04d", i); payloads[i] != want {
				t.Fatalf("cut=%d: payload[%d]=%q", cut, i, payloads[i])
			}
		}
		// The truncated log accepts new appends at the right sequence.
		if seq, err := lt.Append([]byte("resume")); err != nil || seq != survivors+1 {
			t.Fatalf("cut=%d: append seq=%d err=%v", cut, seq, err)
		}
		if err := lt.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCorruptionIsTypedNotSkipped flips bytes mid-log (not a torn
// tail) and expects ErrCorrupt — replaying past damage could drop or
// double-apply events.
func TestCorruptionIsTypedNotSkipped(t *testing.T) {
	build := func(t *testing.T) (string, string, []byte) {
		dir := t.TempDir()
		l, _, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		fill(t, l, 8, "corrupt")
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		segs, _ := listSegments(dir)
		path := filepath.Join(dir, segs[0].name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return dir, path, data
	}

	t.Run("payload bit flip mid-log", func(t *testing.T) {
		dir, path, data := build(t)
		data[headerSize+2] ^= 0x40 // first record's payload
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("open = %v, want ErrCorrupt", err)
		}
	})

	t.Run("sequence gap mid-log", func(t *testing.T) {
		dir, path, data := build(t)
		// Rewrite record 2's seq to 7 and fix its checksum so only the
		// contiguity check can catch it.
		recLen := int64(headerSize + len("corrupt-0000"))
		off := recLen // start of record 2
		data[off+8] = 7
		sum := crc32.ChecksumIEEE(data[off+8 : off+recLen])
		data[off+4] = byte(sum)
		data[off+5] = byte(sum >> 8)
		data[off+6] = byte(sum >> 16)
		data[off+7] = byte(sum >> 24)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("open = %v, want ErrCorrupt", err)
		}
	})

	t.Run("missing middle segment", func(t *testing.T) {
		// A missing FIRST segment is indistinguishable from a prune —
		// the host's checkpoint contiguity check owns that case. A
		// hole in the middle is corruption the log itself must catch.
		dir := t.TempDir()
		l, _, err := Open(dir, Options{SegmentBytes: 64})
		if err != nil {
			t.Fatal(err)
		}
		fill(t, l, 30, "gap")
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		segs, _ := listSegments(dir)
		if len(segs) < 3 {
			t.Fatalf("need 3+ segments, got %d", len(segs))
		}
		if err := os.Remove(filepath.Join(dir, segs[1].name)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(dir, Options{SegmentBytes: 64}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("open = %v, want ErrCorrupt", err)
		}
	})
}

// TestFaultHooks drives the append path through a faults.Injector:
// disk-full and transient vetoes leave the log retryable; a torn
// write poisons it and recovery truncates the cut record.
func TestFaultHooks(t *testing.T) {
	t.Run("transient then retry", func(t *testing.T) {
		dir := t.TempDir()
		inj := faults.New(faults.Config{Seed: 3, WriteFailProb: 0.5})
		l, _, err := Open(dir, Options{Hooks: inj})
		if err != nil {
			t.Fatal(err)
		}
		appended := uint64(0)
		for i := 0; i < 50; i++ {
			seq, err := l.Append([]byte(fmt.Sprintf("ev-%04d", i)))
			if err != nil {
				if !faults.IsTransient(err) {
					t.Fatalf("append %d: %v", i, err)
				}
				// Retry once; the injector's next draw decides again.
				seq, err = l.Append([]byte(fmt.Sprintf("ev-%04d", i)))
				if err != nil {
					continue // still failing: give up on this event
				}
			}
			appended++
			if seq != appended {
				t.Fatalf("append %d: seq %d, want %d (a failed attempt consumed a sequence)", i, seq, appended)
			}
		}
		if appended == 0 || appended == 50 {
			t.Fatalf("%d/50 appends landed; fault stream not exercising both paths", appended)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		_, info, err := Open(dir, Options{})
		if err != nil || info.Records != appended {
			t.Fatalf("recovered %d records (err=%v), want %d", info.Records, err, appended)
		}
	})

	t.Run("disk full is permanent", func(t *testing.T) {
		inj := faults.New(faults.Config{Seed: 4, DiskFullAfterBytes: 60})
		l, _, err := Open(t.TempDir(), Options{Hooks: inj})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append([]byte("fits-in-budget")); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append([]byte("overflows-the-injected-budget")); !faults.IsDiskFull(err) {
			t.Fatalf("append over budget: %v", err)
		}
		// The veto happened before any byte landed: the log still works
		// for... nothing (budget spent), but its state is coherent.
		if l.LastSeq() != 1 {
			t.Fatalf("failed append advanced LastSeq to %d", l.LastSeq())
		}
	})

	t.Run("torn write poisons then truncates", func(t *testing.T) {
		dir := t.TempDir()
		inj := faults.New(faults.Config{Seed: 5, TornWriteProb: 1})
		l, _, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		fill(t, l, 5, "pre")
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		l2, _, err := Open(dir, Options{Hooks: inj})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l2.Append([]byte("doomed")); !errors.Is(err, ErrTorn) {
			t.Fatalf("append under TornWriteProb=1: %v", err)
		}
		if _, err := l2.Append([]byte("after")); !errors.Is(err, ErrClosed) {
			t.Fatalf("poisoned log accepted append: %v", err)
		}

		l3, info, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if info.Records != 5 {
			t.Fatalf("recovered %d records, want the 5 pre-crash ones", info.Records)
		}
		if info.TornBytes == 0 {
			t.Fatal("torn bytes not reported")
		}
		if seq, err := l3.Append([]byte("recovered")); err != nil || seq != 6 {
			t.Fatalf("post-recovery append: seq=%d err=%v", seq, err)
		}
		if err := l3.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestShortWriteKeepsWholeRecords: a write that lands part of the
// pending records and then fails (a disk-full blip) is cut back to the
// last whole record, and the records stay pending. Whatever follows —
// a Close that lands them, or one that fails again — the log reopens
// holding every record synced before the failure, never a partial
// record buried under a retried one.
func TestShortWriteKeepsWholeRecords(t *testing.T) {
	for _, tc := range []struct {
		name      string
		failures  int    // failing writes before writes succeed again; -1 = all
		wantAfter uint64 // records the reopened log holds
	}{
		{name: "write succeeds on close", failures: 1, wantAfter: 7},
		{name: "write keeps failing", failures: -1, wantAfter: 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, _, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			fill(t, l, 3, "synced")
			for i := 0; i < 4; i++ {
				if _, err := l.Append([]byte(fmt.Sprintf("pending-%04d", i))); err != nil {
					t.Fatal(err)
				}
			}
			recLen := headerSize + len("pending-0000")
			writes := 0
			l.write = func(f *os.File, p []byte) (int, error) {
				writes++
				if tc.failures >= 0 && writes > tc.failures {
					return f.Write(p)
				}
				n, err := f.Write(p[:recLen+recLen/2]) // a record and a half land
				if err != nil {
					return n, err
				}
				return n, errors.New("no space left on device")
			}
			if err := l.Sync(); err == nil {
				t.Fatal("Sync reported success after a short write")
			}
			if l.LastSeq() != 7 {
				t.Fatalf("LastSeq = %d after a failed Sync, want 7 (records stay pending)", l.LastSeq())
			}
			cerr := l.Close()
			if (cerr != nil) != (tc.failures < 0) {
				t.Fatalf("Close = %v with %d failing writes", cerr, tc.failures)
			}

			l2, info, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("reopen after a short write: %v", err)
			}
			if info.Records != tc.wantAfter || info.TornBytes != 0 {
				t.Fatalf("reopened %+v, want %d records and no torn bytes", info, tc.wantAfter)
			}
			_, payloads := collect(t, l2, 0)
			for i, p := range payloads {
				want := fmt.Sprintf("synced-%04d", i)
				if i >= 3 {
					want = fmt.Sprintf("pending-%04d", i-3)
				}
				if p != want {
					t.Fatalf("record %d = %q, want %q", i+1, p, want)
				}
			}
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestGroupCommitWritesOnSync: appends only buffer; Sync lands the
// whole group with one write, and a segment roll lands the group
// before starting the next segment.
func TestGroupCommitWritesOnSync(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	var writes []int
	l.write = func(f *os.File, p []byte) (int, error) {
		writes = append(writes, len(p))
		return f.Write(p)
	}
	for i := 0; i < 2; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("group-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if len(writes) != 0 {
		t.Fatalf("Append wrote %v before Sync", writes)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	recLen := headerSize + len("group-0000")
	if len(writes) != 1 || writes[0] != 2*recLen {
		t.Fatalf("Sync wrote %v, want one write of %d bytes", writes, 2*recLen)
	}
	// 52 bytes in the segment: the next append still fits, the one
	// after rolls and must land the pending record first.
	for i := 2; i < 4; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("group-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if len(writes) != 2 || writes[1] != recLen {
		t.Fatalf("roll wrote %v, want the pending record landed before the roll", writes)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, info, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil || info.Records != 4 || info.Segments != 2 {
		t.Fatalf("reopened %+v (err %v), want 4 records in 2 segments", info, err)
	}
}

// TestStartAt: an empty log continues at a host-given sequence, also
// when a roll left an empty segment under another name; a log holding
// records refuses.
func TestStartAt(t *testing.T) {
	dir := t.TempDir()
	// A roll whose first record never landed leaves segment 1 empty.
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	l, info, err := Open(dir, Options{})
	if err != nil || info.Records != 0 || l.LastSeq() != 0 {
		t.Fatalf("open over an empty segment: %+v, LastSeq %d, err %v", info, l.LastSeq(), err)
	}
	if err := l.StartAt(41); err != nil {
		t.Fatal(err)
	}
	fill(t, l, 2, "resumed")
	if err := l.StartAt(99); err == nil {
		t.Fatal("StartAt accepted on a log holding records")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, info, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Segments != 1 || info.FirstSeq != 41 || info.LastSeq != 42 {
		t.Fatalf("reopened %+v, want one segment holding 41..42", info)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
}

// FuzzRecover feeds arbitrary bytes as a tail segment: Open must
// never panic, and whatever it recovers must replay cleanly with
// contiguous sequences from 1.
func FuzzRecover(f *testing.F) {
	// Seed with a valid log prefix and a few mutations of it.
	dir := f.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("seed-%d", i))); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		f.Fatal(err)
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(dir, segs[0].name))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	mutated := append([]byte(nil), valid...)
	mutated[9] ^= 0xff
	f.Add(mutated)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		lt, info, err := Open(dir, Options{})
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped open error: %v", err)
			}
			return
		}
		want := uint64(1)
		rerr := lt.Replay(0, func(seq uint64, p []byte) error {
			if seq != want {
				t.Fatalf("replay seq %d, want %d", seq, want)
			}
			if len(p) == 0 {
				t.Fatal("empty payload replayed")
			}
			want++
			return nil
		})
		if rerr != nil && !errors.Is(rerr, ErrCorrupt) {
			t.Fatalf("untyped replay error: %v", rerr)
		}
		if want-1 != info.Records {
			t.Fatalf("replayed %d records, Open reported %d", want-1, info.Records)
		}
		if err := lt.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

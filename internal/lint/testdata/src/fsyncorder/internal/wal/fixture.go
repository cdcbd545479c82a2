// Package wal is the fsyncorder fixture: its path suffix puts it
// under the durability contract, and every exported function here
// contains both write and sync effects so the gate admits it.
package wal

import (
	"bufio"
	"os"
)

// AckBeforeSync acknowledges on the fast path before the fsync runs.
func AckBeforeSync(f *os.File, b []byte, fast bool) error {
	if _, err := f.Write(b); err != nil {
		return err
	}
	if fast {
		return nil // want "success return reachable with unsynced writes"
	}
	return f.Sync()
}

// SyncThenWrite fsyncs first and writes after: the bytes the caller
// is told are durable never hit the platter.
func SyncThenWrite(f *os.File, b []byte) error {
	if err := f.Sync(); err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		return err
	}
	return nil // want "success return reachable with unsynced writes"
}

// FlushIsNotSync drains the bufio buffer into the kernel and calls
// that durable; only the strict path ever fsyncs.
func FlushIsNotSync(f *os.File, w *bufio.Writer, b []byte, strict bool) error {
	if strict {
		if err := f.Sync(); err != nil {
			return err
		}
	}
	if _, err := w.Write(b); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return nil // want "success return reachable with unsynced writes"
}

// WriteThenSync is the contract done right: every success return sits
// behind the fsync.
func WriteThenSync(f *os.File, b []byte) error {
	if _, err := f.Write(b); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	return nil
}

// ErrorPathsMayStayDirty returns errors without syncing — failure
// acks promise nothing — and syncs before the one success return.
func ErrorPathsMayStayDirty(f *os.File, b []byte) error {
	n, err := f.Write(b)
	if err != nil {
		return err
	}
	if n != len(b) {
		return os.ErrInvalid
	}
	return f.Sync()
}

// SyncMetaIsNoSync fsyncs the directory, writes, and then trusts a
// helper whose name says sync but whose body never fsyncs: the bytes
// are not durable at the success return.
func SyncMetaIsNoSync(dir, f *os.File, b []byte) error {
	if err := dir.Sync(); err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		return err
	}
	if err := syncMeta(f); err != nil {
		return err
	}
	return nil // want "success return reachable with unsynced writes"
}

func syncMeta(f *os.File) error {
	if f.Name() == "" {
		return os.ErrInvalid
	}
	return nil
}

// LandThroughHelper fsyncs the directory, writes, and lands the bytes
// through a helper that fsyncs: the success return is durable.
func LandThroughHelper(dir, f *os.File, b []byte) error {
	if err := dir.Sync(); err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		return err
	}
	if err := land(f); err != nil {
		return err
	}
	return nil
}

func land(f *os.File) error { return f.Sync() }

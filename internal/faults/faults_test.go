package faults

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"activedr/internal/timeutil"
)

func TestValidate(t *testing.T) {
	if err := (Config{UnlinkFailProb: 0.5}).Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Config{
		{UnlinkFailProb: -0.1},
		{ScanInterruptProb: 1.5},
		{ReadFailProb: 2},
	} {
		if bad.Validate() == nil {
			t.Errorf("config %+v accepted", bad)
		}
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on invalid config")
		}
	}()
	New(Config{UnlinkFailProb: -1})
}

// drawSequence records a fixed call pattern's decisions.
func drawSequence(in *Injector, n int) string {
	out := ""
	at := timeutil.Date(2016, 1, 1)
	for i := 0; i < n; i++ {
		budget := in.BeginScan(at, 1000)
		out += fmt.Sprintf("s%d;", budget)
		for j := 0; j < 5; j++ {
			out += fmt.Sprintf("u%v;", in.UnlinkFails("/p"))
		}
		if err := in.ReadAttempt(); err != nil {
			out += "r!;"
		}
		at = at.Add(timeutil.Week)
	}
	return out
}

func TestDeterminism(t *testing.T) {
	cfg := Config{Seed: 42, UnlinkFailProb: 0.3, ScanInterruptProb: 0.4, ReadFailProb: 0.2}
	a := drawSequence(New(cfg), 50)
	b := drawSequence(New(cfg), 50)
	if a != b {
		t.Fatal("same seed produced different decision streams")
	}
	cfg.Seed = 43
	if drawSequence(New(cfg), 50) == a {
		t.Fatal("different seeds produced identical decision streams")
	}
}

func TestStateRestoreResumesStream(t *testing.T) {
	cfg := Config{Seed: 7, UnlinkFailProb: 0.5, ScanInterruptProb: 0.5, ReadFailProb: 0.5}
	in := New(cfg)
	_ = drawSequence(in, 10)
	st := in.State()
	tail := drawSequence(in, 10)

	in2 := New(cfg)
	in2.Restore(st)
	if got := drawSequence(in2, 10); got != tail {
		t.Fatalf("restored stream diverged:\n got %s\nwant %s", got, tail)
	}
	if in2.State() != in.State() {
		t.Fatal("states diverged after identical resumed draws")
	}
}

func TestBeginScanBudgetRange(t *testing.T) {
	in := New(Config{Seed: 1, ScanInterruptProb: 1})
	for i := 0; i < 100; i++ {
		b := in.BeginScan(timeutil.Date(2016, 1, 1), 500)
		if b < 0 || b >= 500 {
			t.Fatalf("budget %d outside [0,500)", b)
		}
	}
	if got := in.State().InterruptedScans; got != 100 {
		t.Fatalf("InterruptedScans = %d, want 100", got)
	}
	// Zero probability or empty namespace: never interrupted.
	quiet := New(Config{Seed: 1})
	if quiet.BeginScan(timeutil.Date(2016, 1, 1), 500) != -1 {
		t.Fatal("interrupt with zero probability")
	}
	hot := New(Config{Seed: 1, ScanInterruptProb: 1})
	if hot.BeginScan(timeutil.Date(2016, 1, 1), 0) != -1 {
		t.Fatal("interrupt on empty namespace")
	}
}

func TestClearAfterSilencesFaults(t *testing.T) {
	clear := timeutil.Date(2016, 6, 1)
	in := New(Config{Seed: 3, UnlinkFailProb: 1, ScanInterruptProb: 1, ClearAfter: clear})
	if in.BeginScan(clear.Add(-timeutil.Day), 100) < 0 {
		t.Fatal("faults inactive before ClearAfter")
	}
	if !in.UnlinkFails("/p") {
		t.Fatal("unlink fault inactive before ClearAfter")
	}
	if in.BeginScan(clear, 100) != -1 {
		t.Fatal("scan fault fired at ClearAfter")
	}
	if in.UnlinkFails("/p") {
		t.Fatal("unlink fault fired after ClearAfter")
	}
}

func TestReadAttemptAndRetry(t *testing.T) {
	in := New(Config{Seed: 5, ReadFailProb: 1})
	if err := in.ReadAttempt(); !IsTransient(err) {
		t.Fatalf("ReadAttempt = %v, want transient", err)
	}

	b := NewBackoff(5, time.Millisecond, 8*time.Millisecond)
	// Transient failures within budget eventually succeed.
	calls := 0
	err := RetryBackoff(5, b, nil, func() error {
		calls++
		if calls < 3 {
			return fmt.Errorf("wrap: %w", ErrTransient)
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("RetryBackoff = %v after %d calls", err, calls)
	}

	// Permanent errors are not retried.
	perm := errors.New("disk on fire")
	calls = 0
	if err := RetryBackoff(5, b, nil, func() error { calls++; return perm }); !errors.Is(err, perm) || calls != 1 {
		t.Fatalf("permanent error retried: err=%v calls=%d", err, calls)
	}

	// Budget exhaustion surfaces the transient error.
	calls = 0
	err = RetryBackoff(3, b, nil, func() error { calls++; return in.ReadAttempt() })
	if !IsTransient(err) || calls != 3 {
		t.Fatalf("exhausted retry: err=%v calls=%d", err, calls)
	}
}

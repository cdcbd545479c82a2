package parallel

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestShardsCoverExactly(t *testing.T) {
	f := func(nRaw uint16, ranksRaw uint8) bool {
		n := int(nRaw % 5000)
		p := NewPool(int(ranksRaw%32) + 1)
		shards := p.Shards(n)
		if n == 0 {
			return len(shards) == 0
		}
		covered := 0
		prev := 0
		for _, s := range shards {
			if s[0] != prev || s[1] <= s[0] {
				return false
			}
			covered += s[1] - s[0]
			prev = s[1]
		}
		if covered != n || prev != n {
			return false
		}
		// Shard sizes differ by at most 1.
		min, max := n, 0
		for _, s := range shards {
			size := s[1] - s[0]
			if size < min {
				min = size
			}
			if size > max {
				max = size
			}
		}
		return max-min <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewPoolDefaults(t *testing.T) {
	if NewPool(0).ranks <= 0 {
		t.Fatal("default pool has no ranks")
	}
	if NewPool(7).ranks != 7 {
		t.Fatal("explicit rank count ignored")
	}
}

// TestForEachShardVisitsAll checks that the shards of n items cover
// every item exactly once. ForEachShard, the error-free wrapper it was
// named for, is gone; RunShards is the one shard runner.
func TestForEachShardVisitsAll(t *testing.T) {
	p := NewPool(4)
	const n = 1000
	var hits [n]int32
	err := p.RunShards(n, func(rank, lo, hi int) error {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("item %d visited %d times", i, h)
		}
	}
}

func TestTimedShards(t *testing.T) {
	p := NewPool(3)
	var total int64
	timings, err := p.TimedShards(100, func(rank, lo, hi int) {
		atomic.AddInt64(&total, int64(hi-lo))
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(timings) != 3 {
		t.Fatalf("timings = %d ranks", len(timings))
	}
	items := 0
	for _, tm := range timings {
		if tm.Elapsed < 0 {
			t.Errorf("rank %d negative elapsed", tm.Rank)
		}
		items += tm.Items
		if tm.String() == "" {
			t.Error("empty timing string")
		}
	}
	if items != 100 || total != 100 {
		t.Fatalf("items = %d, total = %d", items, total)
	}
}

func TestRunShardsCollectsErrorsAndPanics(t *testing.T) {
	p := NewPool(4)
	sentinel := errors.New("shard failed")
	err := p.RunShards(100, func(rank, lo, hi int) error {
		switch rank {
		case 1:
			return sentinel
		case 2:
			panic("rank 2 exploded")
		}
		return nil
	})
	if err == nil {
		t.Fatal("shard failures lost")
	}
	if !errors.Is(err, sentinel) {
		t.Error("returned shard error not joined")
	}
	var se *ShardError
	if !errors.As(err, &se) {
		t.Fatal("no *ShardError in chain")
	}
	if !strings.Contains(err.Error(), "rank 2 exploded") {
		t.Errorf("panic value lost: %v", err)
	}
	if !strings.Contains(err.Error(), "rank 1 shard [") {
		t.Errorf("shard coordinates missing: %v", err)
	}
	if p.RunShards(0, func(rank, lo, hi int) error { return nil }) != nil {
		t.Error("empty shard set errored")
	}
}

// TestForEachShardRecoversPanic checks that a panicking rank surfaces
// as a *ShardError naming its shard while the other ranks finish
// theirs, through RunShards (ForEachShard was a wrapper over it).
func TestForEachShardRecoversPanic(t *testing.T) {
	p := NewPool(3)
	var visited int32
	err := p.RunShards(90, func(rank, lo, hi int) error {
		if rank == 0 {
			panic(errors.New("boom"))
		}
		atomic.AddInt32(&visited, int32(hi-lo))
		return nil
	})
	if err == nil {
		t.Fatal("panic not surfaced as error")
	}
	var se *ShardError
	if !errors.As(err, &se) {
		t.Fatalf("err = %T, want *ShardError in chain", err)
	}
	if se.Rank != 0 || se.Lo != 0 || se.Hi != 30 {
		t.Errorf("shard coords = rank %d [%d,%d)", se.Rank, se.Lo, se.Hi)
	}
	// The surviving ranks finished their shards.
	if visited != 60 {
		t.Errorf("surviving ranks visited %d items, want 60", visited)
	}
}

func TestTimedShardsSurvivesPanic(t *testing.T) {
	p := NewPool(2)
	timings, err := p.TimedShards(10, func(rank, lo, hi int) {
		if rank == 1 {
			panic("late rank down")
		}
	})
	if err == nil {
		t.Fatal("panic not surfaced")
	}
	if len(timings) != 2 {
		t.Fatalf("timings = %d ranks, want both recorded", len(timings))
	}
	for _, tm := range timings {
		if tm.Elapsed < 0 {
			t.Errorf("rank %d negative elapsed", tm.Rank)
		}
	}
}

func TestShardErrorUnwrap(t *testing.T) {
	cause := errors.New("root cause")
	se := &ShardError{Rank: 3, Lo: 10, Hi: 20, Err: cause}
	if !errors.Is(se, cause) {
		t.Error("Unwrap does not expose cause")
	}
	want := "parallel: rank 3 shard [10,20): root cause"
	if se.Error() != want {
		t.Errorf("Error() = %q, want %q", se.Error(), want)
	}
}

func TestRunCollectsErrors(t *testing.T) {
	p := NewPool(2)
	sentinel := errors.New("boom")
	err := p.Run([]func() error{
		func() error { return nil },
		func() error { return sentinel },
		func() error { panic("ouch") },
	})
	if err == nil {
		t.Fatal("errors lost")
	}
	if !errors.Is(err, sentinel) {
		t.Error("sentinel error not joined")
	}
	if err.Error() == "" {
		t.Error("empty error text")
	}
	if p.Run(nil) != nil {
		t.Error("empty task list errored")
	}
}

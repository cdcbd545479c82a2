package parallel

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestStressManyShortTasks hammers Run with far more tasks than
// ranks, all mutating shared accumulators. Meaningful under -race:
// the atomic counter and the mutex-guarded map are touched from
// every rank concurrently.
func TestStressManyShortTasks(t *testing.T) {
	const tasks = 5000
	pool := NewPool(8)

	var counter atomic.Int64
	var mu sync.Mutex
	perTask := make(map[int]bool, tasks)

	fns := make([]func() error, tasks)
	for i := range fns {
		i := i
		fns[i] = func() error {
			counter.Add(1)
			mu.Lock()
			perTask[i] = true
			mu.Unlock()
			return nil
		}
	}
	if err := pool.Run(fns); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := counter.Load(); got != tasks {
		t.Fatalf("counter = %d, want %d", got, tasks)
	}
	if len(perTask) != tasks {
		t.Fatalf("perTask has %d entries, want %d", len(perTask), tasks)
	}
}

// TestStressPanicsMidFlight panics in a third of the tasks and in
// several shards while the rest keep writing shared state. Every
// panic must surface as an error, every non-panicking task must have
// run, and the process must survive.
func TestStressPanicsMidFlight(t *testing.T) {
	const tasks = 900
	pool := NewPool(6)

	var completed atomic.Int64
	fns := make([]func() error, tasks)
	for i := range fns {
		i := i
		fns[i] = func() error {
			if i%3 == 0 {
				panic(fmt.Sprintf("task %d detonated", i))
			}
			completed.Add(1)
			return nil
		}
	}
	err := pool.Run(fns)
	if err == nil {
		t.Fatal("Run returned nil error despite panics")
	}
	if got := completed.Load(); got != tasks-tasks/3 {
		t.Fatalf("completed = %d, want %d", got, tasks-tasks/3)
	}

	// Same mid-flight panics through the shard API: panicking ranks
	// must not stop the others, and each failure must carry its
	// shard coordinates.
	var items atomic.Int64
	err = pool.RunShards(1000, func(rank, lo, hi int) error {
		for i := lo; i < hi; i++ {
			if i == lo+(hi-lo)/2 && rank%2 == 0 {
				panic("rank detonated halfway")
			}
			items.Add(1)
		}
		return nil
	})
	if err == nil {
		t.Fatal("RunShards returned nil error despite panics")
	}
	var se *ShardError
	if !errors.As(err, &se) {
		t.Fatalf("error %v does not unwrap to *ShardError", err)
	}
	if se.Hi <= se.Lo {
		t.Fatalf("ShardError has empty range [%d,%d)", se.Lo, se.Hi)
	}
	if items.Load() == 0 {
		t.Fatal("no items processed despite odd ranks surviving")
	}
}

// TestStressSharedAccumulators runs TimedShards repeatedly with all
// ranks appending into rank-indexed slots and summing into shared
// atomics — the accumulation patterns the figure suite uses — so the
// race detector sees the real access pattern at full width.
func TestStressSharedAccumulators(t *testing.T) {
	const n = 10000
	pool := NewPool(0) // GOMAXPROCS width

	for round := 0; round < 5; round++ {
		var sum atomic.Int64
		perRank := make([]int64, pool.ranks)
		timings, err := pool.TimedShards(n, func(rank, lo, hi int) {
			local := int64(0)
			for i := lo; i < hi; i++ {
				local += int64(i)
			}
			perRank[rank] += local
			sum.Add(local)
		})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		want := int64(n) * (n - 1) / 2
		if got := sum.Load(); got != want {
			t.Fatalf("round %d: sum = %d, want %d", round, got, want)
		}
		var fromRanks int64
		for _, v := range perRank {
			fromRanks += v
		}
		if fromRanks != want {
			t.Fatalf("round %d: per-rank sum = %d, want %d", round, fromRanks, want)
		}
		var covered int
		for _, tm := range timings {
			covered += tm.Items
		}
		if covered != n {
			t.Fatalf("round %d: timings cover %d items, want %d", round, covered, n)
		}
	}
}

// TestStressConcurrentPools runs several pools at once, each with
// its own shard work, to catch any accidental shared state between
// Pool values.
func TestStressConcurrentPools(t *testing.T) {
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			pool := NewPool(3 + p)
			var count atomic.Int64
			if err := pool.RunShards(2500, func(rank, lo, hi int) error {
				count.Add(int64(hi - lo))
				return nil
			}); err != nil {
				t.Errorf("pool %d: %v", p, err)
				return
			}
			if got := count.Load(); got != 2500 {
				t.Errorf("pool %d: covered %d items, want 2500", p, got)
			}
		}(p)
	}
	wg.Wait()
}

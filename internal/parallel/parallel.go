// Package parallel provides the sharded worker pool the retention
// prototype uses to scan metadata snapshots, mirroring the paper's
// mpi4py ranks: work is split into contiguous shards, one goroutine
// per rank, with per-rank timing probes feeding the Figure 12
// performance evaluation.
package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"activedr/internal/profiling"
)

// Pool runs sharded work across a fixed number of ranks.
type Pool struct {
	ranks int
}

// NewPool builds a pool with the given number of ranks; ranks ≤ 0
// selects GOMAXPROCS.
func NewPool(ranks int) *Pool {
	if ranks <= 0 {
		ranks = runtime.GOMAXPROCS(0)
	}
	return &Pool{ranks: ranks}
}

// Shards splits n items into at most the pool's rank count of
// contiguous [lo, hi) ranges of near-equal size.
func (p *Pool) Shards(n int) [][2]int {
	if n <= 0 {
		return nil
	}
	k := p.ranks
	if k > n {
		k = n
	}
	out := make([][2]int, 0, k)
	base, rem := n/k, n%k
	lo := 0
	for i := 0; i < k; i++ {
		size := base
		if i < rem {
			size++
		}
		out = append(out, [2]int{lo, lo + size})
		lo += size
	}
	return out
}

// ShardError is a failure in one rank's shard: either an error the
// shard function returned or a recovered panic, tagged with the rank
// and the [Lo, Hi) item range so a billion-file scan failure points at
// the slice that caused it.
type ShardError struct {
	Rank int
	Lo   int
	Hi   int
	Err  error
}

// Error renders the failure with its shard coordinates.
func (e *ShardError) Error() string {
	return fmt.Sprintf("parallel: rank %d shard [%d,%d): %v", e.Rank, e.Lo, e.Hi, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *ShardError) Unwrap() error { return e.Err }

// callShard invokes fn for one shard, converting a panic into an
// error carrying the recovered value and stack. A panicking rank must
// not take the whole process down: the other ranks finish and the
// caller gets a joined report instead of a crash.
func callShard(rank, lo, hi int, fn func(rank, lo, hi int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &ShardError{Rank: rank, Lo: lo, Hi: hi,
				Err: fmt.Errorf("panic: %v\n%s", r, debug.Stack())}
		}
	}()
	if e := fn(rank, lo, hi); e != nil {
		err = &ShardError{Rank: rank, Lo: lo, Hi: hi, Err: e}
	}
	return
}

// RunShards runs fn(rank, lo, hi) concurrently over the shards of n
// items and blocks until all ranks finish, joining per-rank failures
// (returned errors and recovered panics) into the result.
func (p *Pool) RunShards(n int, fn func(rank, lo, hi int) error) error {
	shards := p.Shards(n)
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for r, s := range shards {
		wg.Add(1)
		go func(rank, lo, hi int) {
			defer wg.Done()
			errs[rank] = callShard(rank, lo, hi, fn)
		}(r, s[0], s[1])
	}
	wg.Wait()
	return errors.Join(errs...)
}

// RankTiming records one rank's wall-clock work, the per-rank probe
// of the paper's Figure 12b–d.
type RankTiming struct {
	Rank    int
	Items   int
	Elapsed time.Duration
}

// String renders the timing as one report line.
func (t RankTiming) String() string {
	return fmt.Sprintf("rank %2d: items=%d elapsed=%v", t.Rank, t.Items, t.Elapsed)
}

// TimedShards runs fn(rank, lo, hi) over the shards of n items like
// RunShards, with per-rank timing probes. Panicking ranks still record
// their timing (up to the panic) and surface as *ShardError in the
// joined error.
func (p *Pool) TimedShards(n int, fn func(rank, lo, hi int)) ([]RankTiming, error) {
	timings := make([]RankTiming, len(p.Shards(n)))
	err := p.RunShards(n, func(rank, lo, hi int) error {
		timer := profiling.StartTimer()
		defer func() { timings[rank] = RankTiming{Rank: rank, Items: hi - lo, Elapsed: timer.Elapsed()} }()
		fn(rank, lo, hi)
		return nil
	})
	return timings, err
}

// Run executes the tasks across the pool, collecting every error
// (joined) and recovering panics into errors so one bad shard cannot
// take the scan down.
func (p *Pool) Run(tasks []func() error) error {
	if len(tasks) == 0 {
		return nil
	}
	sem := make(chan struct{}, p.ranks)
	errs := make([]error, len(tasks))
	var wg sync.WaitGroup
	for i, task := range tasks {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, task func() error) {
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("parallel: task %d panicked: %v", i, r)
				}
				<-sem
				wg.Done()
			}()
			errs[i] = task()
		}(i, task)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Package r is a rand-split-per-goroutine fixture: shared
// randx.Source values crossing goroutine boundaries.
package r

import (
	"activedr/internal/parallel"
	"activedr/internal/randx"
)

// SharedCapture leaks one source into a goroutine.
func SharedCapture(done chan struct{}) {
	src := randx.New(1)
	go func() {
		_ = src.Uint64() // want "goroutine literal captures shared \*randx.Source \"src\""
		close(done)
	}()
}

// SplitCapture derives a child stream on the capture path.
func SplitCapture(done chan struct{}) {
	src := randx.New(1)
	go func() {
		child := src.Split()
		_ = child.Uint64()
		close(done)
	}()
}

// OwnSource builds its stream inside the goroutine.
func OwnSource(done chan struct{}) {
	go func() {
		src := randx.New(1)
		_ = src.Uint64()
		close(done)
	}()
}

// PoolCallback leaks one source into every rank.
func PoolCallback(pool *parallel.Pool, n int) error {
	src := randx.New(1)
	return pool.RunShards(n, func(rank, lo, hi int) error {
		_ = src.Uint64() // want "parallel.Pool callback captures shared \*randx.Source \"src\""
		return nil
	})
}

// PoolTasks leaks one source into the task list.
func PoolTasks(pool *parallel.Pool) error {
	src := randx.New(1)
	return pool.Run([]func() error{
		func() error {
			_ = src.Uint64() // want "parallel.Pool callback captures shared \*randx.Source \"src\""
			return nil
		},
	})
}

// PoolSplit seeds each rank with an independent child.
func PoolSplit(pool *parallel.Pool, n int) error {
	src := randx.New(1)
	children := make([]*randx.Source, n)
	for i := range children {
		children[i] = src.Split()
	}
	return pool.RunShards(n, func(rank, lo, hi int) error {
		_ = children[rank].Uint64()
		return nil
	})
}

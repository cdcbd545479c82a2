// Package g is the goroutineleak fixture: spawns with and without
// join edges, through literals, local functions, methods, and
// functions of another package.
package g

import (
	"sync"

	"activedr/internal/lint/testdata/src/goroutineleak/worker"
)

type svc struct {
	done chan struct{}
	out  chan int
}

func work()           {}
func backgroundScan() {}

// FireAndForget spawns a literal that signals nothing.
func FireAndForget() {
	go func() { // want "fire-and-forget goroutine: no join signal"
		work()
	}()
}

// SpawnLocalNoSignal spawns a package-local function with no signal
// in its body.
func SpawnLocalNoSignal() {
	go backgroundScan() // want "fire-and-forget goroutine: no join signal"
}

// SignalNobodyConsumes sends on a channel no function in the package
// ever receives from.
func SignalNobodyConsumes() {
	orphan := make(chan int, 1)
	go func() { // want "goroutine signals orphan but nothing in the package waits"
		orphan <- 1
	}()
}

// WaitGroupJoined is the canonical fan-out: Done in the goroutine,
// Wait in the spawner.
func WaitGroupJoined(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
}

// ChannelJoined closes a done channel the spawner receives on.
func ChannelJoined() {
	done := make(chan struct{})
	go func() {
		defer close(done)
		work()
	}()
	<-done
}

// MethodJoinedAcrossFuncs spawns a method whose close signal is
// consumed by a different method of the same type: the join edge is
// package-wide, not function-local.
func (s *svc) Start() {
	go s.run()
}

func (s *svc) run() {
	defer close(s.done)
	for v := range s.out {
		_ = v
	}
}

func (s *svc) Stop() {
	close(s.out)
	<-s.done
}

// SpawnOtherPackageNoSignal spawns a function of another package that
// signals nothing: the call graph sees its body.
func SpawnOtherPackageNoSignal() {
	go worker.Scan() // want "fire-and-forget goroutine: no join signal"
}

// SpawnOtherPackageJoined spawns a method of another package whose
// close signal that package's own Wait consumes.
func SpawnOtherPackageJoined() {
	l := worker.New()
	go l.Run()
	l.Wait()
}

// Package l is the lockflow fixture: held locks spanning blocking
// operations and early returns that leak the lock, plus the clean
// shapes the rule must stay silent on.
package l

import (
	"net/http"
	"os"
	"sync"
	"time"

	"activedr/internal/parallel"
)

type server struct {
	mu    sync.RWMutex
	state map[string]int
}

func writeJSON(w http.ResponseWriter, v any) {
	_ = v
	w.WriteHeader(http.StatusOK)
}

// RespondUnderLock answers the client while still holding the mutex:
// a slow client stalls every other request on s.mu.
func (s *server) RespondUnderLock(w http.ResponseWriter) {
	s.mu.Lock()
	defer s.mu.Unlock()
	writeJSON(w, s.state) // want "held lock s.mu spans an HTTP response write"
}

// SleepUnderRead holds the read lock across a sleep.
func (s *server) SleepUnderRead(d time.Duration) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	time.Sleep(d) // want "held read lock s.mu spans time.Sleep"
	return len(s.state)
}

// LeakOnError returns early without releasing the lock.
func (s *server) LeakOnError(path string) error {
	s.mu.Lock()
	if s.state == nil {
		return os.ErrInvalid // want "lock s.mu may still be held at this return"
	}
	s.state[path]++
	s.mu.Unlock()
	return nil
}

// SendUnderLock publishes on a channel while holding the mutex; a
// full channel deadlocks every other holder.
func (s *server) SendUnderLock(ch chan int) {
	s.mu.Lock()
	ch <- len(s.state) // want "held lock s.mu spans a channel send"
	s.mu.Unlock()
}

// FileIOUnderLock flushes a file with the mutex held.
func (s *server) FileIOUnderLock(f *os.File) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return f.Sync() // want "held lock s.mu spans .*os.File.*Sync"
}

// RunUnderLock runs a pool's tasks with the mutex held: every other
// holder waits for the slowest task.
func (s *server) RunUnderLock(pool *parallel.Pool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return pool.Run(nil) // want "held lock s.mu spans parallel.Pool.Run"
}

// PersistUnderLock holds the mutex across a helper whose helper
// fsyncs: the blocking call sits two calls below the lock.
func (s *server) PersistUnderLock(f *os.File) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.persist(f) // want "held lock s.mu spans l.server.persist → l.land → .*os.File.*Sync"
}

func (s *server) persist(f *os.File) error { return land(f) }

func land(f *os.File) error { return f.Sync() }

// TotalUnderLock holds the mutex across a helper that only computes.
func (s *server) TotalUnderLock() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total()
}

func (s *server) total() int {
	n := 0
	for _, v := range s.state {
		n += v
	}
	return n
}

// CopyThenRespond is the clean shape: snapshot under the lock,
// release, then do the slow write.
func (s *server) CopyThenRespond(w http.ResponseWriter) {
	s.mu.RLock()
	n := len(s.state)
	s.mu.RUnlock()
	writeJSON(w, n)
}

// DeferCovered releases on every path through the deferred unlock and
// never blocks while holding it.
func (s *server) DeferCovered(k string) (int, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.state[k]
	if !ok {
		return 0, false
	}
	return v, true
}

// NonBlockingSelect probes a channel under the lock, but the default
// clause makes the receive non-blocking.
func (s *server) NonBlockingSelect(ch chan int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case v := <-ch:
		return v
	default:
		return -1
	}
}

// BranchesBothUnlock releases on every path before the blocking call.
func (s *server) BranchesBothUnlock(w http.ResponseWriter, ok bool) {
	s.mu.Lock()
	if ok {
		s.mu.Unlock()
		writeJSON(w, 1)
		return
	}
	s.mu.Unlock()
	writeJSON(w, 0)
}

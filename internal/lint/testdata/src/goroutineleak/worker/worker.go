// Package worker holds the functions the goroutineleak fixture spawns
// from another package.
package worker

// Scan does its work and signals nothing.
func Scan() {}

// Loop closes done when Run returns; Wait joins it.
type Loop struct{ done chan struct{} }

func New() *Loop { return &Loop{done: make(chan struct{})} }

func (l *Loop) Run() { defer close(l.done) }

func (l *Loop) Wait() { <-l.done }

package npms

import (
	"testing"

	"rdgc/internal/core"
	"rdgc/internal/heap"
)

// The external tests in this directory (package npms_test, which can import
// the packages that import this one, gcfuzz's modes among them) reach the
// step machine and the lock-step reference of reference_test.go through
// these.

// StepsOf returns c's step machine.
func StepsOf(c *Collector) *core.Steps { return c.st }

// Lockstep is a run of a collector beside the reference substrate.
type Lockstep = lockstep

// NewLockstep installs the reference beside c on h, as the lock-step tests
// of reference_test.go do.
func NewLockstep(t *testing.T, h *heap.Heap, c *Collector) *Lockstep { return newLockstep(t, h, c) }

// Finish flushes any deferred sweeps and compares every step once more.
func (l *lockstep) Finish() { l.finish() }

// Package parallel provides the deterministic fan-out primitive behind every
// embarrassingly-parallel layer of the repo: the planner's scale-factor-K
// search, the figure-regeneration sweeps (Fig 10/11/12/13), server-power-table
// training and the diurnal policy variants.
//
// The contract is strict determinism: Map(n, w, fn) returns exactly the slice
// a sequential loop would have produced, for every worker count. Three rules
// make that hold:
//
//  1. Results are written to their input index — reduction order is the
//     caller's loop order, never completion order.
//  2. Tasks must not share mutable state. Stochastic tasks derive an
//     independent rng stream from the root seed and their own index
//     (MapSeeded), so no task's consumption pattern can perturb another's.
//  3. workers <= 1 takes the exact sequential code path — no goroutines, no
//     channels — so single-core CI and -workers 1 behave byte-identically
//     to the pre-parallel code.
//
// A panic inside a task is recovered into a *PanicError carrying the task
// index and stack, so one bad grid cell fails the sweep instead of the
// process.
package parallel

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"eprons/internal/rng"
)

// DefaultWorkers is the worker count the cmd/ tools default their -workers
// flag to — sweep cells are independent simulations, so cell-level fan-out
// is where extra cores pay off: the effective Go parallelism limit. GOMAXPROCS, unlike NumCPU, respects cgroup CPU quotas
// (since go1.25) and explicit user overrides, so containerized runs don't
// oversubscribe a small quota with one worker per host CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// PanicError wraps a panic recovered from a task.
type PanicError struct {
	Index int    // task index that panicked
	Value any    // the recovered panic value
	Stack []byte // stack trace captured at recovery
}

// Error implements error.
func (p *PanicError) Error() string {
	return fmt.Sprintf("parallel: task %d panicked: %v\n%s", p.Index, p.Value, p.Stack)
}

// call invokes fn(i) converting panics into *PanicError.
func call[T any](i int, fn func(int) (T, error)) (out T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}

// Map evaluates fn(i) for i in [0, n) using at most workers goroutines and
// returns the results in input order. workers <= 1 (or n <= 1) runs on the
// calling goroutine with a plain loop. On error the lowest-index error is
// returned, so the reported failure does not depend on goroutine timing;
// with workers > 1 later tasks may still have run (tasks must be
// independent), whereas the sequential path stops at the first error.
func Map[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	if workers > n {
		workers = n
	}
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			v, err := call(i, fn)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i], errs[i] = call(i, fn)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// MapSeeded is Map for stochastic tasks: each task receives its own
// rng.Stream derived from (seed, name, i), so streams are decoupled across
// tasks and identical for every worker count. name namespaces the
// derivation so two fan-outs sharing a root seed do not correlate.
func MapSeeded[T any](n, workers int, seed int64, name string, fn func(i int, s *rng.Stream) (T, error)) ([]T, error) {
	return Map(n, workers, func(i int) (T, error) {
		return fn(i, TaskStream(seed, name, i))
	})
}

// TaskStream derives the per-task rng stream MapSeeded hands to task i —
// exposed so sequential reference implementations (and tests) can reproduce
// the exact stream a parallel task sees.
func TaskStream(seed int64, name string, i int) *rng.Stream {
	return rng.Derive(seed, fmt.Sprintf("parallel/%s/%d", name, i))
}

// ForEach is Map for side-effecting tasks with no per-task result.
func ForEach(n, workers int, fn func(i int) error) error {
	_, err := Map(n, workers, func(i int) (struct{}, error) {
		return struct{}{}, fn(i)
	})
	return err
}

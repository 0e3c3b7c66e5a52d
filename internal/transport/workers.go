package transport

import "coterie/internal/obs"

// Workers runs jobs on persistent goroutines, so that a job's handler
// executes on a stack that has already grown to the handler's depth. A
// goroutine per job is correct but not free: protocol handlers run deep
// (Mux → Node.handle → Item.Handle → lock queue), and a fresh 2 KB stack
// is copied two or three times on its way down — 30 % of the simulated
// transport's CPU before the multicast legs moved here, 10 % of a daemon's
// before tcpnet's server did.
//
// Concurrency is never capped: Go hands the job to a parked worker when
// there is one and starts a new worker otherwise, so a job blocked in a
// replica's lock queue delays nobody. The new worker stays; only the
// number of *parked* workers is bounded, so a burst leaves at most
// maxParked goroutines behind and an idle process keeps them warm.
//
// Parked counts workers committed to receive on work and not yet claimed
// by a Go. A worker commits (Parked+1) only while Parked < maxParked and a
// Go claims (Parked−1) only while Parked > 0, both by compare-and-swap, so
// the gauge stays in [0, maxParked] and a claimed send on the unbuffered
// channel always finds its receiver: Go never waits for a running job.
type Workers[T any] struct {
	run       func(T)
	work      chan T
	maxParked int64

	Parked  obs.Gauge   // workers waiting for a job
	Spawned obs.Counter // jobs that needed a fresh goroutine
}

// NewWorkers returns a pool that runs each job through run and keeps at
// most maxParked idle workers.
func NewWorkers[T any](maxParked int, run func(T)) *Workers[T] {
	return &Workers[T]{run: run, work: make(chan T), maxParked: int64(maxParked)}
}

// Go runs job on a worker goroutine and returns without waiting for it.
func (w *Workers[T]) Go(job T) {
	for {
		n := w.Parked.Load()
		if n == 0 {
			w.Spawned.Inc()
			go w.worker(job)
			return
		}
		if w.Parked.CompareAndSwap(n, n-1) {
			w.work <- job
			return
		}
	}
}

// Close releases the parked workers; running jobs finish and their workers
// exit. Go must not be called during or after Close — a pool with a single
// dispatcher closes it when the dispatcher is done. A pool that lives as
// long as the process is never closed.
func (w *Workers[T]) Close() { close(w.work) }

func (w *Workers[T]) worker(job T) {
	var none T
	for {
		w.run(job)
		job = none // a parked worker pins no message
		for {
			n := w.Parked.Load()
			if n >= w.maxParked {
				return
			}
			if w.Parked.CompareAndSwap(n, n+1) {
				break
			}
		}
		var ok bool
		if job, ok = <-w.work; !ok {
			return
		}
	}
}

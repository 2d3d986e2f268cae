package serve

import (
	"sync"
	"sync/atomic"
)

// admitter is the server's admission layer: a bounded worker pool drained
// fairly across clients. Each client gets a FIFO queue; workers pick the
// next job round-robin over clients with pending work, so a client
// flooding thousands of submissions cannot starve another's single
// request. This generalizes the PR 1 planner's bounded pool
// (experiments.Options.forEach over a fixed work slice) to a dynamic
// multi-tenant queue; the in-flight bound is the same contract — at most
// `workers` simulations run at once, everything else waits in admission.
type admitter struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queues map[string][]*job
	// order rotates the clients that currently have queued work; next
	// indexes the client to serve first on the following dequeue.
	order  []string
	next   int
	closed bool
	wg     sync.WaitGroup

	// queued and inflight back the server's queue-depth and in-flight
	// gauges (sampled from the metrics goroutine, hence atomic).
	queued   atomic.Int64
	inflight atomic.Int64
}

// Sample reads the admitter's gauges: queue depth, then in-flight runs.
func (a *admitter) Sample(i int) uint64 {
	return clampGauge([...]int64{a.queued.Load(), a.inflight.Load()}[i])
}

// newAdmitter starts `workers` pool goroutines executing run.
func newAdmitter(workers int, run func(*job)) *admitter {
	a := &admitter{queues: map[string][]*job{}}
	a.cond = sync.NewCond(&a.mu)
	for w := 0; w < max(workers, 1); w++ {
		a.wg.Add(1)
		go func() {
			defer a.wg.Done()
			for {
				j, ok := a.dequeue()
				if !ok {
					return
				}
				a.inflight.Add(1)
				run(j)
				a.inflight.Add(-1)
			}
		}()
	}
	return a
}

// tryEnqueue admits a job under its client's queue, with load shedding:
// when the total queued depth has reached limit (0: no limit) the job is
// refused with errOverloaded instead of admitted. The bound is across
// clients — fairness governs service order, not admission — so one
// flooding client fills the shared queue and every further submission
// sheds until workers catch up. A closed pool refuses with errDraining:
// its workers may already have exited, and a job queued then would never
// run.
func (a *admitter) tryEnqueue(j *job, limit int) error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return errDraining
	}
	if limit > 0 && a.queued.Load() >= int64(limit) {
		a.mu.Unlock()
		return errOverloaded
	}
	q := a.queues[j.client]
	if len(q) == 0 {
		a.order = append(a.order, j.client)
	}
	a.queues[j.client] = append(q, j)
	a.queued.Add(1)
	a.mu.Unlock()
	a.cond.Signal()
	return nil
}

// dequeue blocks for the next job, serving clients round-robin; ok is
// false when the pool is closed and fully drained.
func (a *admitter) dequeue() (*job, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for len(a.order) == 0 {
		if a.closed {
			return nil, false
		}
		a.cond.Wait()
	}
	if a.next >= len(a.order) {
		a.next = 0
	}
	client := a.order[a.next]
	q := a.queues[client]
	j := q[0]
	if len(q) == 1 {
		delete(a.queues, client)
		a.order = append(a.order[:a.next], a.order[a.next+1:]...)
		// next now indexes the following client already; wrap lazily.
	} else {
		a.queues[client] = q[1:]
		a.next++
	}
	a.queued.Add(-1)
	return j, true
}

// close stops the pool after draining every queued job and waits for the
// workers to exit.
func (a *admitter) close() {
	a.mu.Lock()
	a.closed = true
	a.mu.Unlock()
	a.cond.Broadcast()
	a.wg.Wait()
}

package serve

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestAdmitterFairness proves the round-robin contract: with one worker
// busy and a 99-job flood queued by client A, client B's single job is
// served on the very next free slot instead of waiting behind the flood.
func TestAdmitterFairness(t *testing.T) {
	exec := make(chan string)
	a := newAdmitter(1, func(j *job) { exec <- j.client })

	// Occupy the worker with A's first job (it blocks sending to exec
	// until we receive), then stack the flood and B's single request.
	a.tryEnqueue(&job{client: "A"}, 0)
	for i := 0; i < 99; i++ {
		a.tryEnqueue(&job{client: "A"}, 0)
	}
	a.tryEnqueue(&job{client: "B"}, 0)

	var order []string
	for i := 0; i < 4; i++ {
		select {
		case c := <-exec:
			order = append(order, c)
		case <-time.After(5 * time.Second):
			t.Fatalf("worker stalled after %v", order)
		}
	}
	sawB := -1
	for i, c := range order {
		if c == "B" {
			sawB = i
		}
	}
	// Round-robin serves B no later than the second dequeue after its
	// enqueue (the occupying job, one A job at worst, then B).
	if sawB < 0 || sawB > 2 {
		t.Fatalf("client B served at position %d of %v; flood starved it", sawB, order)
	}

	// Drain the rest so close() can finish.
	go func() {
		for range exec {
		}
	}()
	a.close()
	close(exec)
}

// TestAdmitterDrainsOnClose: close() returns only after every queued job
// executed — no admitted waiter is left hanging on a shutdown.
func TestAdmitterDrainsOnClose(t *testing.T) {
	var mu sync.Mutex
	ran := map[string]bool{}
	a := newAdmitter(4, func(j *job) {
		mu.Lock()
		ran[j.id] = true
		mu.Unlock()
	})
	const n = 200
	for i := 0; i < n; i++ {
		a.tryEnqueue(&job{id: fmt.Sprint(i), client: fmt.Sprintf("c%d", i%7)}, 0)
	}
	a.close()
	mu.Lock()
	defer mu.Unlock()
	if len(ran) != n {
		t.Fatalf("close returned with %d/%d jobs executed", len(ran), n)
	}
	if got := a.queued.Load(); got != 0 {
		t.Fatalf("queued gauge = %d after drain", got)
	}
	if got := a.inflight.Load(); got != 0 {
		t.Fatalf("inflight gauge = %d after drain", got)
	}
}

package metrics

import (
	"sync"
	"sync/atomic"
	"testing"
)

// collectSink records the final value of one named cell across windows.
type collectSink struct {
	name  string
	total uint64
}

func (c *collectSink) Emit(w Window) {
	for i, n := range w.Names {
		if n == c.name && w.Kinds[i] == KindCounter {
			c.total += w.Values[i]
		}
	}
}

// TestAtomicCounterConcurrent exercises the serving-layer contract: many
// goroutines counting against one AtomicCounter while another goroutine
// snapshots and closes windows. Run under -race this doubles as the
// data-race proof; the arithmetic check proves no increment is lost and
// the window deltas sum to the final value.
func TestAtomicCounterConcurrent(t *testing.T) {
	r := NewRegistry(nil)
	c := r.AtomicCounter("serve/test")
	var gaugeVal atomic.Int64
	r.Gauges(sampleFunc(func() uint64 { return uint64(gaugeVal.Load()) }), "serve/gauge")
	sink := &collectSink{name: "serve/test"}
	r.SetSink(sink)

	const workers = 8
	const perWorker = 5000
	stop := make(chan struct{})
	var snapDone sync.WaitGroup
	snapDone.Add(1)
	go func() {
		defer snapDone.Done()
		end := uint64(1)
		for {
			select {
			case <-stop:
				return
			default:
			}
			r.Snapshot()
			r.Value("serve/test")
			r.CloseWindow(end)
			end++
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if i%10 == 0 {
					c.Add(2)
					gaugeVal.Add(1)
				} else {
					c.Inc()
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	snapDone.Wait()

	// 500 of each worker's 5000 iterations Add(2), the rest Inc.
	const want = workers * (perWorker + perWorker/10)
	if got := c.Value(); got != want {
		t.Fatalf("Value = %d, want %d (lost increments)", got, want)
	}
	// Close the final window: deltas across all windows must sum to the
	// total — nothing double-counted, nothing dropped at window edges.
	r.CloseWindow(1 << 60)
	if sink.total != want {
		t.Fatalf("window deltas sum to %d, want %d", sink.total, want)
	}
}

// TestAtomicCounterZeroValue: the zero handle is a no-op like Counter.
func TestAtomicCounterZeroValue(t *testing.T) {
	var c AtomicCounter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("zero AtomicCounter counted")
	}
	var r *Registry
	if h := r.AtomicCounter("x"); h.Value() != 0 {
		t.Fatal("nil registry returned a live handle")
	}
}

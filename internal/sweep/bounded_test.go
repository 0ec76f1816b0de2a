package sweep

import (
	"context"
	"sync"
	"testing"
	"time"

	"addict/internal/sched"
	"addict/internal/sim"
)

// TestWorkbenchBoundedStress hammers a weight-bounded session cache's
// Result from many goroutines (run it under -race): a tiny budget forces
// artifact eviction and regeneration mid-traffic, yet every Result must
// equal the unbounded reference — eviction changes residency, never
// content — and the eviction counter must only grow.
func TestWorkbenchBoundedStress(t *testing.T) {
	ctx := context.Background()
	names := []string{"synth:uniform-ro", "synth:hotset-write"}

	// Reference values from an unbounded session.
	refArts := NewArtifacts(5, 0.02, 20, 20, 2)
	type pair struct {
		name string
		mech sched.Mechanism
	}
	var pairs []pair
	ref := map[pair]sim.Result{}
	for _, name := range names {
		for _, mech := range sched.Mechanisms {
			p := pair{name, mech}
			r, err := refArts.Result(ctx, p.name, p.mech, sim.Shallow())
			if err != nil {
				t.Fatalf("reference %v: %v", p, err)
			}
			pairs = append(pairs, p)
			ref[p] = r
		}
	}

	// Fresh session with a budget far below the working set (the trace
	// windows alone exceed 64KiB), so the stress loop keeps evicting and
	// regenerating artifacts while other goroutines read them.
	arts := NewArtifacts(5, 0.02, 20, 20, 2)
	arts.Bound(64 << 10)

	stop := make(chan struct{})
	var monitor sync.WaitGroup
	monitor.Add(1)
	go func() {
		defer monitor.Done()
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			if ev := arts.CacheStats().Evictions; ev < last {
				t.Errorf("eviction counter went backwards: %d then %d", last, ev)
				return
			} else {
				last = ev
			}
			time.Sleep(time.Millisecond)
		}
	}()

	const workers, rounds = 4, 3
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				for i := range pairs {
					p := pairs[(i+w*3)%len(pairs)] // offset per worker: maximal interleaving
					got, err := arts.Result(ctx, p.name, p.mech, sim.Shallow())
					if err != nil {
						t.Errorf("worker %d %v: %v", w, p, err)
						return
					}
					if got.Makespan != ref[p].Makespan || got.Machine.Instructions != ref[p].Machine.Instructions {
						t.Errorf("worker %d %v: bounded result diverged from unbounded reference", w, p)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	monitor.Wait()

	st := arts.CacheStats()
	if st.Evictions == 0 {
		t.Errorf("a 64KiB budget never evicted under stress: %+v", st)
	}
	if st.Bytes > 64<<10 {
		t.Errorf("resident weight %d exceeds the 64KiB budget after quiescence", st.Bytes)
	}
	// Every Result call either computed or hit — none were lost.
	if want := uint64(workers*rounds*len(pairs)) + uint64(len(pairs)); st.Hits+st.Misses < want/4 {
		t.Errorf("implausibly few cache interactions: %+v", st)
	}
}

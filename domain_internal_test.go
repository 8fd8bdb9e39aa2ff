package wfe

import "testing"

// TestFreedValuesDropped checks the value-slab lifecycle: the arena free
// hook must zero a block's value when the block is recycled, so the number
// of live values in the slab never exceeds the number of live blocks —
// without it, a drained structure pins up to Capacity dead payloads as GC
// roots.
func TestFreedValuesDropped(t *testing.T) {
	d, err := NewDomain[string](Options{
		Capacity:    1 << 12,
		MaxGuards:   1,
		EraFreq:     8,
		CleanupFreq: 4,
		Debug:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := d.Guard()
	defer g.Release()
	s := NewStack[string](d)
	for i := 0; i < 2000; i++ {
		s.PushGuarded(g, "payload")
		s.PopGuarded(g)
	}

	tel := d.Telemetry()
	if tel.Frees == 0 {
		t.Fatal("churn produced no frees; the test exercised nothing")
	}
	nonzero := uint64(0)
	for _, v := range d.vals {
		if v != "" {
			nonzero++
		}
	}
	// Live blocks (including retired-but-not-yet-freed) may hold values;
	// freed blocks must not.
	if nonzero > tel.InUse {
		t.Fatalf("%d values alive in the slab but only %d blocks in use (%d freed blocks kept their payloads)",
			nonzero, tel.InUse, nonzero-tel.InUse)
	}
}

// TestSpareTidKeepsCounters: spareTid hands a cached guard's tid to a
// parked acquirer and abandons the Guard object. The tid's lease and batch
// counters must survive the hand-over — they belong to the tid, not to
// the Guard that carried it.
func TestSpareTidKeepsCounters(t *testing.T) {
	d, err := NewDomain[uint64](Options{Capacity: 1 << 10, MaxGuards: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := NewHashMap[uint64](d, 16)
	m.Insert(1, 1) // a miss, then the guard idles in the lease cache
	m.Insert(2, 2) // a hit
	m.MultiDelete([]uint64{1, 2, 3})
	before := d.Telemetry()
	if before.BatchOps != 1 || before.BatchedItems != 3 || before.GuardCacheHits != 2 {
		t.Fatalf("setup: BatchOps %d BatchedItems %d GuardCacheHits %d, want 1, 3, 2",
			before.BatchOps, before.BatchedItems, before.GuardCacheHits)
	}
	tid, ok := d.spareTid()
	if !ok {
		t.Fatal("spareTid found no idle guard in the lease cache")
	}
	after := d.Telemetry()
	if after.BatchOps < before.BatchOps || after.BatchedItems < before.BatchedItems ||
		after.GuardCacheHits < before.GuardCacheHits {
		t.Fatalf("counters went down across spareTid: BatchOps %d→%d BatchedItems %d→%d GuardCacheHits %d→%d",
			before.BatchOps, after.BatchOps, before.BatchedItems, after.BatchedItems,
			before.GuardCacheHits, after.GuardCacheHits)
	}
	d.guards.Release(tid)
	if free := d.Telemetry().GuardsFree; free != 1 {
		t.Fatalf("GuardsFree = %d after returning the spare tid, want 1", free)
	}
}

// TestBatchSpanSurvivesQueueItem: the wait-free queues drive the scheme's
// Begin/Clear themselves (through liveScheme), and inside a Batch those
// calls must leave the batch's span open. On EBR the span is guard A's
// epoch announcement, so a block A protects after a queue item stays
// pinned: a second guard that unlinks, retires and scans it, advancing
// the epoch as far as it can, must not free it while A's batch is open.
// Once the batch ends the same scans free it — the control that shows
// the check can see a free.
func TestBatchSpanSurvivesQueueItem(t *testing.T) {
	queues := map[string]func(*Domain[uint64]) func(*Guard[uint64]){
		"WFQueue": func(d *Domain[uint64]) func(*Guard[uint64]) {
			q := NewWFQueue[uint64](d)
			return func(g *Guard[uint64]) { q.EnqueueGuarded(g, 1); q.DequeueGuarded(g) }
		},
		"TurnQueue": func(d *Domain[uint64]) func(*Guard[uint64]) {
			q := NewTurnQueue[uint64](d)
			return func(g *Guard[uint64]) { q.EnqueueGuarded(g, 1); q.DequeueGuarded(g) }
		},
	}
	for name, build := range queues {
		t.Run(name, func(t *testing.T) {
			d, err := NewDomain[uint64](Options{Scheme: EBR, Capacity: 1 << 10, MaxGuards: 2, Debug: true})
			if err != nil {
				t.Fatal(err)
			}
			queueItem := build(d)
			a, b := d.Guard(), d.Guard()
			defer a.Release()
			defer b.Release()
			var root Atomic[uint64]
			root.Store(b.Alloc(42))

			rt := d.scheme().s.Retirer()
			clock := d.scheme().s.(interface{ AdvanceClock(int) })
			reclaim := func() uint64 {
				before := d.arena.Stats().Frees
				for i := 0; i < 4; i++ {
					clock.AdvanceClock(b.tid)
					rt.Scan(b.tid)
				}
				return d.arena.Stats().Frees - before
			}
			a.Batch(func() {
				queueItem(a)
				r := a.Protect(&root, 0)
				root.Store(Ref[uint64]{})
				b.Retire(r)
				if freed := reclaim(); freed != 0 {
					t.Fatalf("%d blocks freed while A's batch protects one: a queue item closed the span", freed)
				}
				if v := a.Value(r); v != 42 {
					t.Fatalf("protected block reads %d, want 42", v)
				}
			})
			if freed := reclaim(); freed != 1 {
				t.Fatalf("%d blocks freed after the batch ended, want the retired one", freed)
			}
		})
	}
}

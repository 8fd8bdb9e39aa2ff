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

// Tests for the guard runtime: lock-free acquisition, parking, the lease
// cache behind the guardless API, and leak-freedom under goroutine churn.
// CI runs this file under -race.
package wfe_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"wfe"
)

// TestGoroutineChurn runs 8x more goroutines than MaxGuards through the
// guardless API across every scheme: goroutines outnumbering and
// outliving guards is exactly the scenario the guard runtime exists for.
// After quiescing, the guard pool must hold all MaxGuards tids again — a
// missing one means an operation leaked its lease.
func TestGoroutineChurn(t *testing.T) {
	forEachScheme(t, func(t *testing.T, kind wfe.SchemeKind, forceSlow bool) {
		const guards, goroutines, iters = 4, 32, 300
		capacity := 1 << 16
		if kind == wfe.Leak {
			capacity = 1 << 18
		}
		d := testDomain(t, kind, guards, capacity, forceSlow)
		s := wfe.NewStack[uint64](d)
		m := wfe.NewMap[uint64](d, 64)

		var wg sync.WaitGroup
		for w := 0; w < goroutines; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)*271 + 1))
				for i := 0; i < iters; i++ {
					key := uint64(rng.Intn(128))
					switch rng.Intn(5) {
					case 0:
						s.Push(key)
					case 1:
						s.Pop()
					case 2:
						m.Put(key, key)
					case 3:
						m.Delete(key)
					default:
						m.Get(key)
					}
				}
			}(w)
		}
		wg.Wait()

		if stranded := d.FlushGuardCache(); stranded != 0 {
			t.Fatalf("%d guards stranded in the lease cache after flush", stranded)
		}
		tel := d.Telemetry()
		if tel.GuardsFree != guards {
			t.Fatalf("guard leak: %d/%d tids back on the freelist", tel.GuardsFree, guards)
		}
		if tel.GuardAcquires == 0 {
			t.Fatal("churn drove no pool acquisitions")
		}
		if tel.GuardCacheHits == 0 {
			t.Fatal("lease cache never hit under churn; caching is not working")
		}
		// The pool really refills: MaxGuards explicit acquisitions succeed.
		held := make([]*wfe.Guard[uint64], guards)
		for i := range held {
			g, ok := d.TryGuard()
			if !ok {
				t.Fatalf("TryGuard %d/%d failed after quiesce", i+1, guards)
			}
			held[i] = g
		}
		if _, ok := d.TryGuard(); ok {
			t.Fatal("TryGuard handed out more than MaxGuards")
		}
		for _, g := range held {
			g.Release()
		}
	})
}

// TestAcquireGuardParks: an AcquireGuard on an exhausted domain must park
// and be handed the guard a Release frees.
func TestAcquireGuardParks(t *testing.T) {
	d, err := wfe.NewDomain[int](wfe.Options{Capacity: 64, MaxGuards: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := d.Guard()
	got := make(chan *wfe.Guard[int])
	go func() {
		g2, err := d.AcquireGuard(context.Background())
		if err != nil {
			t.Errorf("AcquireGuard: %v", err)
		}
		got <- g2
	}()
	time.Sleep(10 * time.Millisecond) // let the acquirer park
	g.Release()
	select {
	case g2 := <-got:
		g2.Release()
	case <-time.After(2 * time.Second):
		t.Fatal("parked AcquireGuard never woke after Release")
	}
	if tel := d.Telemetry(); tel.GuardParks == 0 {
		t.Fatalf("Telemetry.GuardParks = 0 after a parked acquire: %+v", tel)
	}
}

// TestAcquireGuardContext: a done context unblocks a parked AcquireGuard
// with its error.
func TestAcquireGuardContext(t *testing.T) {
	d, err := wfe.NewDomain[int](wfe.Options{Capacity: 64, MaxGuards: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := d.Guard()
	defer g.Release()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := d.AcquireGuard(ctx); err != context.DeadlineExceeded {
		t.Fatalf("AcquireGuard = %v, want DeadlineExceeded", err)
	}
}

// TestAcquireGuardClaimsCachedLease: a guard idling in the lease cache
// counts as free for explicit acquisition — cached leases must never make
// the domain look exhausted.
func TestAcquireGuardClaimsCachedLease(t *testing.T) {
	d, err := wfe.NewDomain[int](wfe.Options{Capacity: 64, MaxGuards: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := wfe.NewStack[int](d)
	s.Push(1) // leaves the only guard in the lease cache
	g, ok := d.TryGuard()
	if !ok {
		t.Fatal("TryGuard failed while the only guard sat idle in the cache")
	}
	g.Release()
}

// TestUnpinHandsOffToWaiter: Unpin must feed a parked acquirer instead of
// caching the guard on its own P while the waiter sleeps.
func TestUnpinHandsOffToWaiter(t *testing.T) {
	d, err := wfe.NewDomain[int](wfe.Options{Capacity: 64, MaxGuards: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := d.Pin()
	got := make(chan error)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		g2, err := d.AcquireGuard(ctx)
		if err == nil {
			g2.Release()
		}
		got <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the acquirer park
	d.Unpin(g)
	if err := <-got; err != nil {
		t.Fatalf("parked acquirer starved across Unpin: %v", err)
	}
}

// TestPinReusesLease: consecutive Pin/Unpin cycles on one goroutine must
// hit the per-P cache, not the pool.
func TestPinReusesLease(t *testing.T) {
	d, err := wfe.NewDomain[int](wfe.Options{Capacity: 64, MaxGuards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		g := d.Pin()
		d.Unpin(g)
	}
	tel := d.Telemetry()
	if tel.GuardCacheHits < 90 {
		t.Fatalf("GuardCacheHits = %d after 100 Pin/Unpin cycles (misses %d)",
			tel.GuardCacheHits, tel.GuardCacheMisses)
	}
	if stranded := d.FlushGuardCache(); stranded != 0 {
		t.Fatalf("%d guards stranded after flush", stranded)
	}
	if free := d.Telemetry().GuardsFree; free != 2 {
		t.Fatalf("GuardsFree = %d after flush, want 2", free)
	}
}

// TestFlushGuardCacheIdempotent: flushing an empty cache is a no-op and
// repeated flushes stay clean.
func TestFlushGuardCacheIdempotent(t *testing.T) {
	d, err := wfe.NewDomain[int](wfe.Options{Capacity: 64, MaxGuards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if stranded := d.FlushGuardCache(); stranded != 0 {
			t.Fatalf("flush %d stranded %d guards", i, stranded)
		}
	}
}

// TestFlushIgnoresHeldGuards: a guard claimed out of the lease cache and
// still explicitly held occupies its sticky registry slot, but it belongs
// to its holder, not the cache — FlushGuardCache must not count it as
// stranded nor disturb it.
func TestFlushIgnoresHeldGuards(t *testing.T) {
	d, err := wfe.NewDomain[int](wfe.Options{Capacity: 64, MaxGuards: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := wfe.NewStack[int](d)
	s.Push(1) // parks the only guard in the cache with a sticky slot
	g, ok := d.TryGuard()
	if !ok {
		t.Fatal("TryGuard failed to claim the cached guard")
	}
	if stranded := d.FlushGuardCache(); stranded != 0 {
		t.Fatalf("flush counted the explicitly held guard as stranded (%d)", stranded)
	}
	if v, ok := s.PopGuarded(g); !ok || v != 1 {
		t.Fatalf("held guard unusable after flush: Pop = %d,%v", v, ok)
	}
	g.Release()
	if free := d.Telemetry().GuardsFree; free != 1 {
		t.Fatalf("GuardsFree = %d after release, want 1", free)
	}
}

// leaseCounters is the lease and batch accounting slice of Telemetry.
type leaseCounters struct {
	hits, misses, batchHits, batchMisses, batchOps, batchItems uint64
}

func leaseCountersOf(t wfe.Telemetry) leaseCounters {
	return leaseCounters{t.GuardCacheHits, t.GuardCacheMisses,
		t.BatchGuardCacheHits, t.BatchGuardCacheMisses, t.BatchOps, t.BatchedItems}
}

// TestLeaseAccountingExact: on one goroutine every lease is accounted
// exactly once — k Pin/Unpin cycles are one miss and k-1 hits, a TryGuard
// that claims the cached guard and a guardless batch that finds it cached
// are hits too — and FlushGuardCache, Release and Switch move no total.
func TestLeaseAccountingExact(t *testing.T) {
	const k = 50
	d, err := wfe.NewDomain[uint64](wfe.Options{Capacity: 1 << 10, MaxGuards: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := func(step string, w leaseCounters) {
		t.Helper()
		if got := leaseCountersOf(d.Telemetry()); got != w {
			t.Fatalf("%s: lease counters %+v, want %+v", step, got, w)
		}
	}
	for i := 0; i < k; i++ {
		d.Unpin(d.Pin())
	}
	want("Pin/Unpin", leaseCounters{hits: k - 1, misses: 1})

	// With the only guard cached, TryGuard's pool attempt fails and it
	// claims the guard out of the cache; Release returns it to the pool.
	g, ok := d.TryGuard()
	if !ok {
		t.Fatal("TryGuard failed while the only guard sat idle in the cache")
	}
	g.Release()
	want("TryGuard+Release", leaseCounters{hits: k, misses: 1})

	// The guard went home with Release, so the first batch misses and the
	// second finds it cached. GuardCacheHits/Misses include the batch path.
	m := wfe.NewHashMap[uint64](d, 16)
	if _, err := m.TryMultiPut([]uint64{1, 2}, []uint64{1, 2}); err != nil {
		t.Fatal(err)
	}
	m.MultiGet([]uint64{1, 2, 3})
	w := leaseCounters{hits: k + 1, misses: 2, batchHits: 1, batchMisses: 1, batchOps: 2, batchItems: 5}
	want("guardless batches", w)

	if stranded := d.FlushGuardCache(); stranded != 0 {
		t.Fatalf("%d guards stranded", stranded)
	}
	want("FlushGuardCache", w)
	if err := d.Switch(wfe.HE); err != nil {
		t.Fatal(err)
	}
	want("Switch", w)
	m.MultiDelete([]uint64{1, 2}) // cache flushed: a batch-path miss
	w.misses, w.batchMisses, w.batchOps, w.batchItems = w.misses+1, w.batchMisses+1, w.batchOps+1, w.batchItems+2
	want("batch after Switch", w)
}

// TestLeaseTelemetryMonotone: a reader polling Telemetry while workers
// Pin/Unpin, Release leased guards and run guardless batches must never
// see a lease or batch counter go down — they are sums of per-tid
// records that only grow, with nothing folded or cleared on Release.
func TestLeaseTelemetryMonotone(t *testing.T) {
	const workers, iters = 4, 2000
	d, err := wfe.NewDomain[uint64](wfe.Options{Capacity: 1 << 14, MaxGuards: 2})
	if err != nil {
		t.Fatal(err)
	}
	m := wfe.NewHashMap[uint64](d, 64)
	stop := make(chan struct{})
	readerDone := make(chan error)
	go func() {
		prev := leaseCountersOf(d.Telemetry())
		for {
			select {
			case <-stop:
				readerDone <- nil
				return
			default:
			}
			cur := leaseCountersOf(d.Telemetry())
			if cur.hits < prev.hits || cur.misses < prev.misses ||
				cur.batchHits < prev.batchHits || cur.batchMisses < prev.batchMisses ||
				cur.batchOps < prev.batchOps || cur.batchItems < prev.batchItems {
				readerDone <- fmt.Errorf("lease counters went down: %+v then %+v", prev, cur)
				return
			}
			prev = cur
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			keys := []uint64{uint64(w), uint64(w + workers)}
			for i := 0; i < iters; i++ {
				switch i % 4 {
				case 0:
					d.Unpin(d.Pin())
				case 1:
					d.Pin().Release() // the tid leaves the lease cache
				case 2:
					if _, err := m.TryMultiPut(keys, keys); err != nil {
						panic(err)
					}
				case 3:
					m.MultiDelete(keys)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if err := <-readerDone; err != nil {
		t.Fatal(err)
	}
	tel := d.Telemetry()
	if want := uint64(workers * iters / 2); tel.BatchOps != want {
		t.Fatalf("BatchOps = %d, want %d", tel.BatchOps, want)
	}
	if want := uint64(workers * iters); tel.BatchedItems != want {
		t.Fatalf("BatchedItems = %d, want %d", tel.BatchedItems, want)
	}
	if got, leases := tel.GuardCacheHits+tel.GuardCacheMisses, uint64(workers*iters); got != leases {
		t.Fatalf("GuardCacheHits+Misses = %d, want exactly one per lease (%d)", got, leases)
	}
}

// TestLeaseAllocFree: the lease fast path allocates nothing — neither a
// bare Pin+Unpin nor a guardless HashMap.Get, which leases per call — and
// neither does a Domain.Batch: its closure does not escape, so it stays
// on the stack, and a batch keeps no result slice of its own.
func TestLeaseAllocFree(t *testing.T) {
	d, err := wfe.NewDomain[uint64](wfe.Options{Capacity: 1 << 10, MaxGuards: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := wfe.NewHashMap[uint64](d, 16)
	m.Insert(7, 7)
	if a := testing.AllocsPerRun(200, func() { d.Unpin(d.Pin()) }); a != 0 {
		t.Fatalf("Pin+Unpin allocated %.1f times per call; want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() { m.Get(7) }); a != 0 {
		t.Fatalf("guardless HashMap.Get allocated %.1f times per call; want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() {
		d.Batch(func(g *wfe.Guard[uint64]) { m.GetGuarded(g, 7) })
	}); a != 0 {
		t.Fatalf("a Get batch allocated %.1f times per call; want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() {
		d.Batch(func(g *wfe.Guard[uint64]) {
			m.PutGuarded(g, 8, 8)
			m.DeleteGuarded(g, 8)
		})
	}); a != 0 {
		t.Fatalf("a Put+Delete batch allocated %.1f times per call; want 0", a)
	}
}

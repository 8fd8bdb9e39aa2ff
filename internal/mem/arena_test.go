package mem

import (
	"sync"
	"testing"
	"testing/quick"
)

func newTestArena(capacity, threads int) *Arena {
	return New(Config{Capacity: capacity, MaxThreads: threads, Debug: true})
}

func TestAllocFreeReuse(t *testing.T) {
	a := newTestArena(16, 1)
	h1 := mustAlloc(a, 0)
	if h1 == 0 {
		t.Fatal("nil handle from Alloc")
	}
	a.StoreWord(h1, 0, 42)
	if a.LoadWord(h1, 0) != 42 {
		t.Fatal("word lost")
	}
	v1 := a.Version(h1)
	a.SetRetireEra(h1, 1)
	a.Free(0, h1)
	h2 := mustAlloc(a, 0)
	if h2 != h1 {
		t.Fatalf("expected slot reuse, got %d then %d", h1, h2)
	}
	if a.Version(h2) == v1 {
		t.Fatal("version not bumped on free")
	}
}

func TestDoubleFreePanics(t *testing.T) {
	a := newTestArena(4, 1)
	h := mustAlloc(a, 0)
	a.Free(0, h)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic in debug mode")
		}
	}()
	a.Free(0, h)
}

func TestUseAfterFreePanics(t *testing.T) {
	a := newTestArena(4, 1)
	h := mustAlloc(a, 0)
	a.StoreWord(h, 0, 7)
	a.Free(0, h)
	defer func() {
		if recover() == nil {
			t.Fatal("use-after-free did not panic in debug mode")
		}
	}()
	a.LoadWord(h, 0)
}

func TestPoisonOnFree(t *testing.T) {
	a := newTestArena(4, 1)
	h := mustAlloc(a, 0)
	a.StoreWord(h, 2, 12345)
	a.SetRetireEra(h, 1) // published: the retired→free path poisons
	a.Free(0, h)
	// Peek through the raw slot: the accessor would panic.
	if got := a.slot(h).words[2].Load(); got != poison {
		t.Fatalf("freed word = %#x, want poison", got)
	}
}

func TestFastFreeSkipsPoisonButDetectsDoubleFree(t *testing.T) {
	// A live→free block is the never-published constructor-undo path
	// (Guard.Dealloc): its payload was never visible to another goroutine,
	// so debug mode skips the NumWords poison stores — but the state
	// machine must still catch a double free of it.
	a := newTestArena(4, 1)
	h := mustAlloc(a, 0)
	a.StoreWord(h, 1, 42)
	a.SetVal(h, 7)
	a.Free(0, h)
	if got := a.slot(h).words[1].Load(); got != 42 {
		t.Fatalf("never-published free poisoned word: %#x", got)
	}
	if got := a.slot(h).val.Load(); got != 7 {
		t.Fatalf("never-published free poisoned value: %#x", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("double free after a fast free did not panic")
		}
	}()
	a.Free(0, h)
}

// TestExhaustionPanics checks that an exhausted arena reports (0, false)
// and that the must-allocate path pre-sized callers use panics on it.
func TestExhaustionPanics(t *testing.T) {
	a := newTestArena(3, 1)
	for i := 0; i < 3; i++ {
		mustAlloc(a, 0)
	}
	if h, ok := a.Alloc(0); ok || h != 0 {
		t.Fatalf("exhausted arena allocated: (%d, %v)", h, ok)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("must-allocate on an exhausted arena did not panic")
		}
	}()
	mustAlloc(a, 0)
}

func TestRetireStateMachine(t *testing.T) {
	a := newTestArena(4, 1)
	h := mustAlloc(a, 0)
	a.SetAllocEra(h, 5)
	a.SetRetireEra(h, 9)
	if a.AllocEra(h) != 5 || a.RetireEra(h) != 9 {
		t.Fatalf("eras: alloc=%d retire=%d", a.AllocEra(h), a.RetireEra(h))
	}
	if !a.Live(h) {
		t.Fatal("retired slot reported not live")
	}
	a.Free(0, h)
	if a.Live(h) {
		t.Fatal("freed slot reported live")
	}
	// Re-allocating must reset the retire era.
	h2 := mustAlloc(a, 0)
	if a.RetireEra(h2) != 0 {
		t.Fatal("retire era not reset on reuse")
	}
}

func TestStats(t *testing.T) {
	a := newTestArena(16, 2)
	h := mustAlloc(a, 0)
	mustAlloc(a, 1)
	a.SetRetireEra(h, 1)
	a.Free(1, h)
	st := a.Stats()
	if st.Allocs != 2 || st.Frees != 1 || st.InUse != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCASWordAndVal(t *testing.T) {
	a := newTestArena(4, 1)
	h := mustAlloc(a, 0)
	a.StoreWord(h, 0, 10)
	if a.CASWord(h, 0, 11, 12) {
		t.Fatal("CAS with wrong expected succeeded")
	}
	if !a.CASWord(h, 0, 10, 12) {
		t.Fatal("CAS with right expected failed")
	}
	a.SetVal(h, 1)
	if !a.CASVal(h, 1, 2) || a.Val(h) != 2 {
		t.Fatal("CASVal failed")
	}
}

func TestConcurrentAllocFree(t *testing.T) {
	const threads = 8
	const perThread = 5000
	a := New(Config{Capacity: threads * 64, MaxThreads: threads, Debug: true})
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			live := make([]Handle, 0, 16)
			for i := 0; i < perThread; i++ {
				if len(live) == 16 {
					for _, h := range live {
						a.SetRetireEra(h, 1)
						a.Free(tid, h)
					}
					live = live[:0]
				}
				h := mustAlloc(a, tid)
				a.StoreWord(h, 0, uint64(tid))
				live = append(live, h)
			}
			for _, h := range live {
				a.SetRetireEra(h, 1)
				a.Free(tid, h)
			}
		}(tid)
	}
	wg.Wait()
	st := a.Stats()
	if st.InUse != 0 {
		t.Fatalf("leak: %d slots in use after balanced alloc/free", st.InUse)
	}
	if st.Allocs != threads*perThread {
		t.Fatalf("allocs = %d, want %d", st.Allocs, threads*perThread)
	}
}

func TestGlobalSpillBatched(t *testing.T) {
	// Free past 2×SpillSize on one thread: the cache must splice its
	// oldest SpillSize slots onto the global list as one segment, which
	// another thread (empty cache, exhausted bump space) claims whole.
	const spill = 16
	capacity := 3 * spill
	a := New(Config{Capacity: capacity, MaxThreads: 2, Debug: true, SpillSize: spill})
	hs := make([]Handle, 0, capacity)
	for i := 0; i < capacity; i++ {
		hs = append(hs, mustAlloc(a, 0))
	}
	for _, h := range hs {
		a.SetRetireEra(h, 1)
		a.Free(0, h)
	}
	st := a.Stats()
	if st.SegPushes != 1 || st.SegPops != 0 {
		t.Fatalf("segment transfers = %d pushes / %d pops, want 1/0", st.SegPushes, st.SegPops)
	}
	seen := make(map[Handle]bool)
	for i := 0; i < spill; i++ {
		h := mustAlloc(a, 1)
		if seen[h] {
			t.Fatalf("slot %d handed out twice", h)
		}
		seen[h] = true
	}
	st = a.Stats()
	if st.SegPops != 1 {
		t.Fatalf("segment pops = %d after refill, want 1", st.SegPops)
	}
	if st.InUse != spill {
		t.Fatalf("in use = %d, want %d", st.InUse, spill)
	}
}

func TestCensusAccountsEverySlot(t *testing.T) {
	const spill = 8
	a := New(Config{Capacity: 64, MaxThreads: 2, Debug: true, SpillSize: spill})
	var live []Handle
	for i := 0; i < 40; i++ {
		live = append(live, mustAlloc(a, 0))
	}
	for _, h := range live[8:] { // 32 frees: one spill segment + 24 cached
		a.SetRetireEra(h, 1)
		a.Free(0, h)
	}
	c := a.Census()
	if c.Cached != c.CachedLen {
		t.Fatalf("cache walk %d disagrees with length counters %d", c.Cached, c.CachedLen)
	}
	if c.Segments < 1 || c.Global != spill*c.Segments {
		t.Fatalf("global list = %d slots in %d segments, want %d per segment", c.Global, c.Segments, spill)
	}
	if c.Live != 8 {
		t.Fatalf("live = %d, want 8", c.Live)
	}
	if got := c.Cached + c.Global + c.Live + c.BumpFree; got != c.Capacity {
		t.Fatalf("census leak: %d cached + %d global + %d live + %d bump-free != capacity %d",
			c.Cached, c.Global, c.Live, c.BumpFree, c.Capacity)
	}
}

func TestCensusInvariantUnderChurn(t *testing.T) {
	// The arena accounting invariant under a cross-thread churn storm:
	// producers allocate and hand blocks to consumers over channels, so
	// frees land on foreign tids and drive the batched spill/refill paths
	// hard. Between rounds (quiescent barriers) every slot must be in
	// exactly one place.
	const (
		producers = 2
		consumers = 2
		rounds    = 4
		perRound  = 3000
	)
	a := New(Config{Capacity: 1 << 14, MaxThreads: producers + consumers, Debug: true, SpillSize: 32})
	for round := 0; round < rounds; round++ {
		ch := make(chan Handle, 256)
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(tid int) {
				defer wg.Done()
				for i := 0; i < perRound; i++ {
					h := mustAlloc(a, tid)
					a.SetRetireEra(h, 1)
					ch <- h
				}
			}(p)
		}
		var closeOnce sync.WaitGroup
		closeOnce.Add(1)
		go func() { defer closeOnce.Done(); wg.Wait(); close(ch) }()
		var cg sync.WaitGroup
		for c := 0; c < consumers; c++ {
			cg.Add(1)
			go func(tid int) {
				defer cg.Done()
				for h := range ch {
					a.Free(tid, h)
				}
			}(producers + c)
		}
		closeOnce.Wait()
		cg.Wait()

		c := a.Census()
		if c.Cached != c.CachedLen {
			t.Fatalf("round %d: cache walk %d disagrees with length counters %d", round, c.Cached, c.CachedLen)
		}
		if got := c.Cached + c.Global + c.Live + c.BumpFree; got != c.Capacity {
			t.Fatalf("round %d: census leak: %d cached + %d global + %d live + %d bump-free = %d != capacity %d",
				round, c.Cached, c.Global, c.Live, c.BumpFree, got, c.Capacity)
		}
	}
	if st := a.Stats(); st.InUse != 0 || st.SegPushes == 0 {
		t.Fatalf("after churn: InUse=%d SegPushes=%d (want 0, >0)", st.InUse, st.SegPushes)
	}
}

func TestAllocFreeBalanceQuick(t *testing.T) {
	// Property: any interleaved sequence of allocs and frees keeps
	// InUse == Allocs - Frees and never hands out a live slot twice.
	f := func(ops []bool) bool {
		a := New(Config{Capacity: 1024, MaxThreads: 1, Debug: true})
		var live []Handle
		for _, alloc := range ops {
			if alloc || len(live) == 0 {
				if len(live) >= 1000 {
					continue
				}
				h := mustAlloc(a, 0)
				for _, l := range live {
					if l == h {
						return false
					}
				}
				live = append(live, h)
			} else {
				h := live[len(live)-1]
				live = live[:len(live)-1]
				a.Free(0, h)
			}
			st := a.Stats()
			if st.InUse != uint64(len(live)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	for _, cfg := range []Config{
		{Capacity: 0, MaxThreads: 1},
		{Capacity: 1 << 25, MaxThreads: 1},
		{Capacity: 8, MaxThreads: 0},
	} {
		func() {
			defer func() { recover() }()
			New(cfg)
			t.Errorf("config %+v did not panic", cfg)
		}()
	}
}

func TestVersionMonotonicAcrossReuse(t *testing.T) {
	a := newTestArena(4, 1)
	h := mustAlloc(a, 0)
	var last uint32
	for i := 0; i < 50; i++ {
		v := a.Version(h)
		if i > 0 && v <= last {
			t.Fatalf("version did not advance across reuse: %d then %d", last, v)
		}
		last = v
		a.SetRetireEra(h, 1)
		a.Free(0, h)
		h2 := mustAlloc(a, 0)
		if h2 != h {
			t.Fatalf("expected slot reuse, got %d", h2)
		}
	}
}

func TestConcurrentGlobalSpillStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	// Producers free into the global list (via batched spills) while
	// consumers claim whole segments from it; the stamped head must
	// prevent ABA-induced double-allocation, which the debug state machine
	// would catch.
	const (
		threads = 6
		spill   = 64
		batch   = 2*spill + 32 // enough to cross the 2×SpillSize trigger
	)
	a := New(Config{Capacity: 2 * threads * batch, MaxThreads: threads, Debug: true, SpillSize: spill})
	var wg sync.WaitGroup
	for t0 := 0; t0 < threads; t0++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			local := make([]Handle, 0, batch)
			for round := 0; round < 8; round++ {
				for i := 0; i < batch; i++ {
					local = append(local, mustAlloc(a, tid))
				}
				for _, h := range local {
					a.Free(tid, h)
				}
				local = local[:0]
			}
		}(t0)
	}
	wg.Wait()
	if got := a.Stats().InUse; got != 0 {
		t.Fatalf("in use = %d after balanced stress", got)
	}
}

// mustAlloc allocates for tests whose arena is sized for the workload: it
// panics on exhaustion, from any goroutine.
func mustAlloc(a interface{ Alloc(int) (Handle, bool) }, tid int) Handle {
	h, ok := a.Alloc(tid)
	if !ok {
		panic("test arena exhausted")
	}
	return h
}

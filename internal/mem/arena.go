// Package mem is the manual-memory substrate the reclamation schemes manage.
//
// The paper's C++ implementation frees blocks back to jemalloc; a freed block
// may be re-allocated and rewritten while a stale reader still holds a
// pointer to it — exactly the hazard safe memory reclamation defends against.
// Go's garbage collector would silently keep such blocks alive and mask
// reclamation bugs, so this package simulates a manual allocator: a fixed
// arena of node slots addressed by small handles. Free returns a slot to a
// free list where it is immediately reusable; slots carry version counters
// and a state machine (free → live → retired → free) so use-after-free and
// double-free are *detectable* in debug mode, which is stronger validation
// than a native allocator offers.
//
// A Handle is a 24-bit slot reference; 0 is the nil handle. Handles embed in
// the 26-bit link values defined by the pack package.
//
// Paper mapping: the arena plays the role of the paper's allocator and
// per-block headers in one — alloc_era and retire_era (Figure 3's block
// fields, stamped by §3's alloc_block and retire) live in the slot, and
// Free is the free_block the cleanup routines of every scheme call once a
// retired block's lifespan overlaps no reservation.
package mem

import (
	"fmt"
	"sync/atomic"

	"wfe/internal/failpoint"
	"wfe/internal/pack"
	"wfe/internal/trace"
)

// Failpoint sites. Disarmed they cost one atomic load per evaluation;
// armed they let the chaos harness script allocation failure and refill
// starvation deterministically.
var (
	// fpAlloc fires inside Alloc: an injected error makes the
	// allocation report exhaustion even when slots remain.
	fpAlloc = failpoint.New("arena-alloc")
	// fpRefill fires at refill entry: an injected error makes the miss
	// path skip the global list, as if every segment were already claimed.
	fpRefill = failpoint.New("arena-refill")
)

// Handle references an arena slot. 0 is nil; values 1..Capacity are slots.
type Handle = uint64

// NumWords is the number of general-purpose atomic words per slot. Link
// fields, mark bits, descriptor words and per-node metadata of every data
// structure in this repository fit in these words.
const NumWords = 4

// Slot states.
const (
	slotFree uint32 = iota
	slotLive
	slotRetired
)

// poison is written over the payload of freed slots in debug mode so that
// stale readers observe obviously-wrong values instead of plausible ones.
const poison = uint64(0xDEADBEEFDEADBEEF)

type slot struct {
	allocEra  atomic.Uint64
	retireEra atomic.Uint64
	state     atomic.Uint32
	version   atomic.Uint32
	words     [NumWords]atomic.Uint64
	val       atomic.Uint64 // mutable value payload
	// nextFree is the free-list link. It is written only by the slot's
	// current owner (the freeing thread building its cache, or the
	// spilling thread cutting a segment) and read only after ownership is
	// re-acquired through the global head CAS, so it needs no atomics.
	nextFree Handle
	// segMeta is set on a segment's head slot while the segment sits on
	// the global list: packed {length:40 | next-segment handle:24}. It is
	// atomic because refill must read it before winning the head CAS, when
	// a racing pop/recycle/re-push may rewrite it concurrently (the
	// stamped head CAS then fails and the stale read is discarded).
	segMeta atomic.Uint64
}

// threadMem is per-registered-thread allocator state, padded to a cache
// line multiple so neighbouring threads do not false-share.
type threadMem struct {
	freeHead Handle
	freeLen  int
	allocs   atomic.Uint64
	frees    atomic.Uint64
	_        [64]byte
}

// defaultSpillSize is the default batched-transfer segment size: a
// thread's free cache holds up to twice this many slots before spilling
// its oldest defaultSpillSize as one segment.
const defaultSpillSize = 2048

// Config configures an Arena.
type Config struct {
	// Capacity is the number of slots. The maximum is 2^24-2 (handle width).
	Capacity int
	// MaxThreads is the number of registered threads (tids 0..MaxThreads-1).
	MaxThreads int
	// SpillSize is the number of slots moved between a thread's free cache
	// and the global list in one batched segment transfer (default 2048).
	// A cache spills its oldest SpillSize slots once it exceeds
	// 2×SpillSize, and an allocation miss refills a whole segment, so the
	// contended global head is CASed once per SpillSize frees instead of
	// once per free on producer/consumer workloads.
	SpillSize int
	// Debug enables state checking and poisoning on every access.
	Debug bool
	// Tracer, when non-nil, receives segment spill/refill events. A nil
	// or disabled tracer costs one branch per segment transfer.
	Tracer *trace.Tracer
}

// Arena is a bounded slab of slots with per-thread free caches, a global
// list of batched spill segments, and a bump allocator for never-used
// slots.
type Arena struct {
	slots     []slot
	bump      atomic.Uint64 // next never-allocated slot index
	global    atomic.Uint64 // packed {stamp:40 | segment-head handle:24} Treiber head
	threads   []threadMem
	cap       uint64
	spillSize int
	debug     bool
	freeHook  func(h Handle)
	tracer    *trace.Tracer
	segPushes atomic.Uint64
	segPops   atomic.Uint64
	waiters   atomic.Int64 // allocations stalled on exhaustion (AddWaiter)
}

// New creates an arena. It panics on an invalid configuration: the arena is
// infrastructure whose sizing is a programming decision, not runtime input.
func New(cfg Config) *Arena {
	if cfg.Capacity <= 0 || uint64(cfg.Capacity) > pack.HandleMask-1 {
		panic(fmt.Sprintf("mem: capacity %d out of range [1, %d]", cfg.Capacity, pack.HandleMask-1))
	}
	if cfg.MaxThreads <= 0 {
		panic("mem: MaxThreads must be positive")
	}
	if cfg.SpillSize == 0 {
		cfg.SpillSize = defaultSpillSize
	}
	if cfg.SpillSize < 0 {
		panic(fmt.Sprintf("mem: SpillSize %d must be non-negative (0 selects the default)", cfg.SpillSize))
	}
	return &Arena{
		slots:     make([]slot, cfg.Capacity),
		threads:   make([]threadMem, cfg.MaxThreads),
		cap:       uint64(cfg.Capacity),
		spillSize: cfg.SpillSize,
		debug:     cfg.Debug,
		tracer:    cfg.Tracer,
	}
}

// SetFreeHook registers fn to run for every slot handed back by Free,
// before the slot joins a free list. Callers that keep per-slot payloads
// outside the arena (the public Domain's value slab) use it to drop those
// payloads when the block dies, so freed values do not linger as GC roots.
// Register once, before any concurrent use; fn runs on the freeing thread.
func (a *Arena) SetFreeHook(fn func(h Handle)) { a.freeHook = fn }

// Capacity returns the number of slots.
func (a *Arena) Capacity() int { return int(a.cap) }

// Debug reports whether debug checking is enabled.
func (a *Arena) Debug() bool { return a.debug }

func (a *Arena) slot(h Handle) *slot {
	return &a.slots[h-1]
}

// Alloc returns a fresh live slot for thread tid, reusing freed slots
// when available, or (0, false) when the arena is exhausted: tid's free
// cache is empty, the global segment list has nothing to refill from, and
// the bump region is spent. Exhaustion is a backpressure signal, not a
// verdict — retired-but-unscanned blocks may become free after the next
// reclamation scan, which is exactly what the Domain's emergency
// allocation pipeline arranges before giving up.
func (a *Arena) Alloc(tid int) (Handle, bool) {
	if err := fpAlloc.Eval(tid); err != nil {
		return 0, false
	}
	t := &a.threads[tid]
	if t.freeHead == 0 {
		a.refill(tid, t)
	}
	if h := t.freeHead; h != 0 {
		s := a.slot(h)
		t.freeHead = s.nextFree
		t.freeLen--
		a.makeLive(h, s)
		t.allocs.Add(1)
		return h, true
	}
	idx := a.bump.Add(1) - 1
	if idx >= a.cap {
		return 0, false
	}
	h := idx + 1
	a.makeLive(h, a.slot(h))
	t.allocs.Add(1)
	return h, true
}

func (a *Arena) makeLive(h Handle, s *slot) {
	if a.debug {
		if st := s.state.Load(); st != slotFree {
			panic(fmt.Sprintf("mem: alloc of non-free slot %d (state %d)", h, st))
		}
	}
	s.retireEra.Store(0)
	s.state.Store(slotLive)
}

// Free returns a retired (or live, for structures that never published the
// node) slot to the free lists. In debug mode double frees panic, and the
// payload of every published (retired) block is poisoned; a live→free
// block is Dealloc's never-published constructor block, whose payload no
// other goroutine ever saw, so it skips the poison stores — the version
// bump and state word below still arm double-free and use-after-free
// detection for it.
// AddWaiter registers (delta +1) or unregisters (-1) an allocation
// stalled on the exhausted arena. While any waiter is registered, Free
// spills past SpillSize instead of 2×SpillSize: under pressure a free
// block hiding in a private cache is a block the stalled thread cannot
// reach, so the caches keep only their working margin and everything
// else flows to the global list where any thread can claim it.
func (a *Arena) AddWaiter(delta int64) { a.waiters.Add(delta) }

// Pressured reports whether any allocation is currently stalled on the
// arena (registered via AddWaiter). Reclamation cadences consult it to
// scan out of cadence while someone is starving.
func (a *Arena) Pressured() bool { return a.waiters.Load() > 0 }

func (a *Arena) Free(tid int, h Handle) {
	s := a.slot(h)
	if a.debug {
		st := s.state.Load()
		if st == slotFree {
			panic(fmt.Sprintf("mem: double free of slot %d", h))
		}
		if st == slotRetired {
			for i := range s.words {
				s.words[i].Store(poison)
			}
			s.val.Store(poison)
		}
	}
	if a.freeHook != nil {
		a.freeHook(h)
	}
	s.version.Add(1)
	s.state.Store(slotFree)
	t := &a.threads[tid]
	if t.freeLen >= 2*a.spillSize || (t.freeLen > a.spillSize && a.waiters.Load() > 0) {
		a.spillSegment(tid, t)
	}
	s.nextFree = t.freeHead
	t.freeHead = h
	t.freeLen++
	t.frees.Add(1)
}

// FreeRetired frees every slot still in the retired state, crediting the
// frees to tid's cache, and returns how many it freed. It must only run on
// a quiescent arena with every reservation cleared — then a retired slot
// is by definition unreachable. The live scheme switch uses it to reclaim
// blocks the outgoing scheme retired but never tracked (the leak
// baseline's entire backlog); for tracking schemes whose retire rings were
// already drained it is a read-only sweep.
func (a *Arena) FreeRetired(tid int) int {
	n := 0
	// Slots past the bump highwater were never handed out, so they cannot
	// be retired; stopping there keeps the sweep proportional to the
	// arena's real footprint instead of its capacity.
	hi := a.bump.Load()
	if hi > uint64(len(a.slots)) {
		hi = uint64(len(a.slots))
	}
	for i := 0; i < int(hi); i++ {
		if a.slots[i].state.Load() == slotRetired {
			a.Free(tid, Handle(i+1))
			n++
		}
	}
	return n
}

// Global spill list: a Treiber stack of whole segments. The head word
// packs a 40-bit stamp with the 24-bit handle of the top segment's first
// slot; the stamp defeats ABA on concurrent transfers. Each segment is a
// nextFree-linked chain cut from a per-thread cache, its head slot
// carrying the segment length and next-segment link in segMeta, so both
// directions move SpillSize slots per CAS instead of one.

// spillSegment cuts the oldest spillSize slots off tid's free cache —
// everything past the spillSize most recently freed — and pushes them to
// the global list as one segment.
func (a *Arena) spillSegment(tid int, t *threadMem) {
	cut := a.slot(t.freeHead)
	for i := 1; i < a.spillSize; i++ {
		cut = a.slot(cut.nextFree)
	}
	head := cut.nextFree
	n := t.freeLen - a.spillSize
	cut.nextFree = 0
	t.freeLen = a.spillSize
	for {
		old := a.global.Load()
		a.slot(head).segMeta.Store(uint64(n)<<pack.HandleBits | old&pack.HandleMask)
		next := (old>>pack.HandleBits+1)<<pack.HandleBits | head
		if a.global.CompareAndSwap(old, next) {
			a.segPushes.Add(1)
			a.tracer.Emit(tid, trace.KindSegSpill, uint64(n), 0)
			return
		}
	}
}

// refill claims one whole segment off the global list in a single CAS and
// installs it as tid's free cache. The segMeta read may race a concurrent
// pop/recycle/re-push of the observed head slot, but any such cycle
// advances the head stamp, so the CAS only succeeds when the read was of
// the current cycle.
func (a *Arena) refill(tid int, t *threadMem) {
	if err := fpRefill.Eval(tid); err != nil {
		return
	}
	for {
		old := a.global.Load()
		h := old & pack.HandleMask
		if h == 0 {
			return
		}
		meta := a.slot(h).segMeta.Load()
		next := (old>>pack.HandleBits+1)<<pack.HandleBits | meta&pack.HandleMask
		if a.global.CompareAndSwap(old, next) {
			t.freeHead = h
			t.freeLen = int(meta >> pack.HandleBits)
			a.segPops.Add(1)
			a.tracer.Emit(tid, trace.KindSegRefill, uint64(t.freeLen), 0)
			return
		}
	}
}

func (a *Arena) check(h Handle, op string) {
	if a.debug {
		if h == 0 || h > a.cap {
			panic(fmt.Sprintf("mem: %s through invalid handle %d", op, h))
		}
		if a.slot(h).state.Load() == slotFree {
			panic(fmt.Sprintf("mem: use-after-free — %s of freed slot %d", op, h))
		}
	}
}

// CheckLive panics in debug mode when h is invalid or refers to a freed
// slot; it is a no-op otherwise. Callers that keep per-slot payloads
// outside the arena (the public Domain's value slab) use it to extend
// use-after-free detection to those payloads.
func (a *Arena) CheckLive(h Handle, op string) { a.check(h, op) }

// AllocEra returns the slot's allocation era (paper: alloc_era).
func (a *Arena) AllocEra(h Handle) uint64 {
	a.check(h, "AllocEra")
	return a.slot(h).allocEra.Load()
}

// SetAllocEra stamps the slot's allocation era at allocation time.
func (a *Arena) SetAllocEra(h Handle, era uint64) {
	a.check(h, "SetAllocEra")
	a.slot(h).allocEra.Store(era)
}

// RetireEra returns the slot's retirement era (paper: retire_era).
func (a *Arena) RetireEra(h Handle) uint64 {
	a.check(h, "RetireEra")
	return a.slot(h).retireEra.Load()
}

// SetRetireEra stamps the retirement era and moves the slot to the retired
// state. Only in-flight readers may touch the slot afterwards.
func (a *Arena) SetRetireEra(h Handle, era uint64) {
	a.check(h, "SetRetireEra")
	s := a.slot(h)
	if a.debug {
		if st := s.state.Load(); st != slotLive {
			panic(fmt.Sprintf("mem: retire of slot %d in state %d", h, st))
		}
	}
	s.retireEra.Store(era)
	s.state.Store(slotRetired)
}

// LoadWord atomically loads payload word i.
func (a *Arena) LoadWord(h Handle, i int) uint64 {
	a.check(h, "LoadWord")
	return a.slot(h).words[i].Load()
}

// StoreWord atomically stores payload word i.
func (a *Arena) StoreWord(h Handle, i int, v uint64) {
	a.check(h, "StoreWord")
	a.slot(h).words[i].Store(v)
}

// CASWord compare-and-swaps payload word i.
func (a *Arena) CASWord(h Handle, i int, old, new uint64) bool {
	a.check(h, "CASWord")
	return a.slot(h).words[i].CompareAndSwap(old, new)
}

// WordAddr exposes the address of payload word i so it can serve as the
// hazardous-location argument of Scheme.GetProtected. The address stays
// valid for the life of the arena even if the slot is freed; reading a
// freed slot's word through it is the caller's (scheme's) responsibility.
func (a *Arena) WordAddr(h Handle, i int) *atomic.Uint64 {
	a.check(h, "WordAddr")
	return &a.slot(h).words[i]
}

// Val returns the slot's value payload.
func (a *Arena) Val(h Handle) uint64 {
	a.check(h, "Val")
	return a.slot(h).val.Load()
}

// SetVal stores the value payload.
func (a *Arena) SetVal(h Handle, v uint64) {
	a.check(h, "SetVal")
	a.slot(h).val.Store(v)
}

// CASVal compare-and-swaps the value payload.
func (a *Arena) CASVal(h Handle, old, new uint64) bool {
	a.check(h, "CASVal")
	return a.slot(h).val.CompareAndSwap(old, new)
}

// Version returns the slot's reuse version; tests use it to detect that a
// handle observed earlier now refers to a recycled slot.
func (a *Arena) Version(h Handle) uint32 {
	return a.slot(h).version.Load()
}

// Live reports whether the slot is currently allocated (live or retired).
func (a *Arena) Live(h Handle) bool {
	return a.slot(h).state.Load() != slotFree
}

// Stats is a point-in-time allocation census.
type Stats struct {
	Allocs    uint64 // total allocations
	Frees     uint64 // total frees
	InUse     uint64 // Allocs - Frees
	Bumped    uint64 // bump-allocator highwater: slots ever handed out
	SegPushes uint64 // batched segments spilled to the global free list
	SegPops   uint64 // segments claimed back by allocation misses
}

// Stats sums the per-thread counters. The snapshot is approximate under
// concurrency, which is fine for its monitoring purpose.
func (a *Arena) Stats() Stats {
	var st Stats
	for i := range a.threads {
		st.Allocs += a.threads[i].allocs.Load()
		st.Frees += a.threads[i].frees.Load()
	}
	st.InUse = st.Allocs - st.Frees
	b := a.bump.Load()
	if b > a.cap {
		b = a.cap
	}
	st.Bumped = b
	st.SegPushes = a.segPushes.Load()
	st.SegPops = a.segPops.Load()
	return st
}

// Census is a quiescent-only accounting snapshot of where every slot
// sits. Every slot is in exactly one of the four places, so
// Cached+Global+Live+BumpFree == Capacity whenever no allocation or free
// is in flight; the arena invariant tests and quiesce.Check assert this.
type Census struct {
	Cached    int // slots walked in per-thread free caches
	CachedLen int // sum of the caches' length counters (must equal Cached)
	Global    int // slots walked in global spill segments
	Segments  int // segments on the global list
	Live      int // allocated slots (live or retired)
	BumpFree  int // slots the bump allocator has never handed out
	Capacity  int
}

// Census walks the free caches, the global segment list and the slot
// states. It must only be called on a quiescent arena: the walks take no
// locks and tolerate no concurrent Alloc/Free.
func (a *Arena) Census() Census {
	c := Census{Capacity: int(a.cap)}
	for i := range a.threads {
		t := &a.threads[i]
		c.CachedLen += t.freeLen
		for h := t.freeHead; h != 0; h = a.slot(h).nextFree {
			c.Cached++
		}
	}
	for h := a.global.Load() & pack.HandleMask; h != 0; {
		c.Segments++
		for s := h; s != 0; s = a.slot(s).nextFree {
			c.Global++
		}
		h = a.slot(h).segMeta.Load() & pack.HandleMask
	}
	b := a.bump.Load()
	if b > a.cap {
		b = a.cap
	}
	c.BumpFree = int(a.cap - b)
	// Slots past the bump highwater were never handed out and slotFree is
	// the zero state, so the Live walk stops at the highwater — on a large
	// mostly-untouched arena this also avoids faulting in gigabytes of
	// never-used slot memory just to read zeros.
	for i := 0; i < int(b); i++ {
		if a.slots[i].state.Load() != slotFree {
			c.Live++
		}
	}
	return c
}

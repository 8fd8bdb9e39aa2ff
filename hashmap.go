package wfe

import "math/bits"

// map node layout: word 0 = next link (mark bit = logically deleted),
// word 1 = key (immutable after publication).
const (
	mapNext = 0
	mapKey  = 1
)

// Three map protection slots rotate across the prev/cur/next roles of the
// traversal window, exactly as in the paper's list benchmark (see find).

// HashMap is Michael's lock-free hash map of uint64 keys to T values on
// the typed Domain façade (the structure behind the paper's Figures 7 and
// 10): a fixed array of buckets, each a Harris–Michael sorted linked list.
// It needs 3 protection slots per guard (Options.MaxSlots >= 3, which the
// default satisfies).
//
// The plain methods (Insert, Delete, Get, Put, Len) are guardless: each
// leases a guard from the Domain's guard runtime for the duration of the
// operation, so any number of goroutines may call them. The Guarded
// variants take an explicit or pinned Guard and skip the lease — use them
// in hot loops.
type HashMap[T any] struct {
	d       *Domain[T]
	buckets []Atomic[T]
	mask    uint64
}

// NewHashMap creates a map with at least minBuckets buckets (rounded up to
// a power of two) on the Domain. Size buckets near the expected key count
// to keep chains short.
func NewHashMap[T any](d *Domain[T], minBuckets int) *HashMap[T] {
	if minBuckets < 1 {
		minBuckets = 1
	}
	n := 1 << bits.Len(uint(minBuckets-1))
	return &HashMap[T]{d: d, buckets: make([]Atomic[T], n), mask: uint64(n - 1)}
}

// bucket picks the chain via a Fibonacci multiplicative hash.
func (m *HashMap[T]) bucket(key uint64) *Atomic[T] {
	return &m.buckets[(key*0x9E3779B97F4A7C15)>>32&m.mask]
}

// window is the result of a traversal: the node owning the link to cur
// (nil Ref = the bucket head), and the clean link values of cur and its
// successor.
type window[T any] struct {
	prev Ref[T]
	cur  Ref[T] // nil means end of chain
	next Ref[T] // clean successor link of cur (valid when cur != nil)
}

// loadPrev re-reads the link out of which cur was found, mark bit
// included, so the caller can detect the window moving under it.
func (m *HashMap[T]) loadPrev(g *Guard[T], head *Atomic[T], prev Ref[T]) Ref[T] {
	if prev.IsNil() {
		return head.Load()
	}
	return g.Load(prev, mapNext)
}

// casPrev swings the link out of which cur was found.
func (m *HashMap[T]) casPrev(g *Guard[T], head *Atomic[T], prev, old, new Ref[T]) bool {
	if prev.IsNil() {
		return head.CompareAndSwap(old, new)
	}
	return g.CompareAndSwap(prev, mapNext, old, new)
}

// find positions the window at the first node with key >= key, unlinking
// marked nodes it passes (Michael's find). The three protection slots
// rotate across the prev/cur/next roles, so at most three protections
// cover the whole traversal — what lets bounded schemes (HP, HE, WFE)
// manage an unbounded chain.
func (m *HashMap[T]) find(g *Guard[T], head *Atomic[T], key uint64) (bool, window[T]) {
retry:
	for {
		var prev Ref[T]
		iCur, iNext := 1, 2
		iPrev := 0
		cur := g.Protect(head, iCur)
		for {
			if cur.IsNil() {
				return false, window[T]{prev: prev, cur: cur}
			}
			next := g.ProtectWord(cur, mapNext, iNext)
			if m.loadPrev(g, head, prev) != cur {
				continue retry // window moved under us
			}
			if next.Marked() {
				// cur is logically deleted: unlink it here.
				clean := next.Unmarked()
				if !m.casPrev(g, head, prev, cur, clean) {
					continue retry
				}
				g.Retire(cur)
				cur = clean
				iCur, iNext = iNext, iCur
				continue
			}
			ckey := g.LoadMeta(cur, mapKey)
			if ckey >= key {
				return ckey == key, window[T]{prev: prev, cur: cur, next: next}
			}
			prev = cur
			iPrev, iCur, iNext = iCur, iNext, iPrev
			cur = next
		}
	}
}

// Insert adds key→val; it reports false (leaving the map unchanged) when
// the key is already present.
func (m *HashMap[T]) Insert(key uint64, val T) bool {
	g := m.d.Pin()
	defer m.d.unpin(g)
	return m.InsertGuarded(g, key, val)
}

// Delete removes key, reporting whether it was present. The victim is
// marked first (the linearization point) and unlinked here or by a later
// traversal.
func (m *HashMap[T]) Delete(key uint64) bool {
	g := m.d.Pin()
	defer m.d.unpin(g)
	return m.DeleteGuarded(g, key)
}

// Get returns the value stored under key.
func (m *HashMap[T]) Get(key uint64) (v T, ok bool) {
	g := m.d.Pin()
	defer m.d.unpin(g)
	return m.GetGuarded(g, key)
}

// Put inserts key→val, or replaces an existing key's node with a freshly
// allocated one (mark, swing, retire). Replacement rather than in-place
// mutation is what keeps values safely immutable for concurrent readers —
// and why read-mostly workloads still exercise reclamation (paper §5).
func (m *HashMap[T]) Put(key uint64, val T) {
	g := m.d.Pin()
	defer m.d.unpin(g)
	m.PutGuarded(g, key, val)
}

// Len counts reachable, unmarked nodes; meaningful only quiescently.
func (m *HashMap[T]) Len() int {
	g := m.d.Pin()
	defer m.d.unpin(g)
	return m.LenGuarded(g)
}

// TryInsert is Insert with backpressure: when the key is absent and the
// arena stays exhausted after the Domain's emergency-reclamation
// pipeline, it returns ErrArenaExhausted instead of panicking. ok
// reports the insert outcome (false with a nil error means the key was
// already present).
func (m *HashMap[T]) TryInsert(key uint64, val T) (ok bool, err error) {
	g := m.d.Pin()
	defer m.d.unpin(g)
	return m.TryInsertGuarded(g, key, val)
}

// InsertGuarded is Insert on a caller-held guard.
func (m *HashMap[T]) InsertGuarded(g *Guard[T], key uint64, val T) bool {
	ok, err := m.TryInsertGuarded(g, key, val)
	if err != nil {
		panic(exhaustedPanic(m.d.arena.Capacity()))
	}
	return ok
}

// TryInsertGuarded is TryInsert on a caller-held guard.
func (m *HashMap[T]) TryInsertGuarded(g *Guard[T], key uint64, val T) (ok bool, err error) {
	g.Begin()
	defer g.End()
	head := m.bucket(key)
	var n Ref[T]
	for {
		found, w := m.find(g, head, key)
		if found {
			if !n.IsNil() {
				g.Dealloc(n) // never published: no reader can hold it
			}
			return false, nil
		}
		if n.IsNil() {
			// Allocate only once the key is known absent, so a lookup-heavy
			// workload never pays allocation (or pressure) for misses that
			// turn out to be hits. The lazy site sits inside the protected
			// section, so an exhausted arena is handled by dropping the
			// protection, running the emergency pipeline unprotected, and
			// restarting the traversal with the node in hand.
			var ok bool
			if n, ok = g.tryAllocFast(val); !ok {
				g.End()
				n, err = g.TryAlloc(val)
				g.Begin()
				if err != nil {
					return false, err
				}
				g.StoreMeta(n, mapKey, key)
				continue // the window went stale while unprotected
			}
			g.StoreMeta(n, mapKey, key)
		}
		g.Store(n, mapNext, w.cur)
		if m.casPrev(g, head, w.prev, w.cur, n) {
			return true, nil
		}
	}
}

// DeleteGuarded is Delete on a caller-held guard.
func (m *HashMap[T]) DeleteGuarded(g *Guard[T], key uint64) bool {
	g.Begin()
	defer g.End()
	head := m.bucket(key)
	for {
		found, w := m.find(g, head, key)
		if !found {
			return false
		}
		if !g.CompareAndSwap(w.cur, mapNext, w.next, w.next.WithMark()) {
			continue // successor changed or someone else marked it
		}
		if m.casPrev(g, head, w.prev, w.cur, w.next) {
			g.Retire(w.cur)
		}
		return true
	}
}

// GetGuarded is Get on a caller-held guard.
func (m *HashMap[T]) GetGuarded(g *Guard[T], key uint64) (v T, ok bool) {
	g.Begin()
	defer g.End()
	found, w := m.find(g, m.bucket(key), key)
	if !found {
		return v, false
	}
	return g.Value(w.cur), true
}

// TryPut is Put with backpressure: when the arena stays exhausted after
// the Domain's emergency-reclamation pipeline it returns
// ErrArenaExhausted (leaving the map unchanged) instead of panicking.
func (m *HashMap[T]) TryPut(key uint64, val T) error {
	g := m.d.Pin()
	defer m.d.unpin(g)
	return m.TryPutGuarded(g, key, val)
}

// PutGuarded is Put on a caller-held guard.
func (m *HashMap[T]) PutGuarded(g *Guard[T], key uint64, val T) {
	if err := m.TryPutGuarded(g, key, val); err != nil {
		panic(exhaustedPanic(m.d.arena.Capacity()))
	}
}

// TryPutGuarded is TryPut on a caller-held guard.
func (m *HashMap[T]) TryPutGuarded(g *Guard[T], key uint64, val T) error {
	// Put always consumes a node (insert and replace both link a fresh
	// one), so allocate before entering the protected section: an
	// exhausted-arena stall then runs the emergency pipeline with no
	// reservations held and no epoch announced, leaving every block
	// reclaimable by the concurrent scans the pipeline waits on.
	n, err := g.TryAlloc(val)
	if err != nil {
		return err
	}
	g.StoreMeta(n, mapKey, key)
	g.Begin()
	defer g.End()
	head := m.bucket(key)
	for {
		found, w := m.find(g, head, key)
		if found {
			// Logically delete the old node, then swing prev to the
			// replacement in its place.
			if !g.CompareAndSwap(w.cur, mapNext, w.next, w.next.WithMark()) {
				continue
			}
			g.Store(n, mapNext, w.next)
			if m.casPrev(g, head, w.prev, w.cur, n) {
				g.Retire(w.cur)
				return nil
			}
			// A traversal unlinked (and retired) the marked node first;
			// retry — the next find will take the insert path.
			continue
		}
		g.Store(n, mapNext, w.cur)
		if m.casPrev(g, head, w.prev, w.cur, n) {
			return nil
		}
	}
}

// MultiGet looks up every key in one Domain.Batch: one lease and one
// protection span cover the whole run. Results are positional: vals[i],
// oks[i] answer keys[i].
func (m *HashMap[T]) MultiGet(keys []uint64) (vals []T, oks []bool) {
	vals, oks = make([]T, len(keys)), make([]bool, len(keys))
	m.d.Batch(func(g *Guard[T]) {
		for i, k := range keys {
			vals[i], oks[i] = m.GetGuarded(g, k)
		}
	})
	return vals, oks
}

// MultiDelete removes every key in one Domain.Batch; oks[i] reports
// whether keys[i] was present. The unlinked nodes retire as one burst, so
// the cleanup cadence ticks once instead of once per key.
func (m *HashMap[T]) MultiDelete(keys []uint64) (oks []bool) {
	oks = make([]bool, len(keys))
	m.d.Batch(func(g *Guard[T]) {
		for i, k := range keys {
			oks[i] = m.DeleteGuarded(g, k)
		}
	})
	return oks
}

// TryMultiPut stores every key→val pair in one Domain.Batch, stopping at
// the first pair whose node the arena cannot supply after the emergency-
// reclamation pipeline. The pairs before it stay applied: applied is that
// prefix length, reported alongside ErrArenaExhausted — callers resume
// from keys[applied:].
func (m *HashMap[T]) TryMultiPut(keys []uint64, vals []T) (applied int, err error) {
	if len(keys) != len(vals) {
		panic("wfe: TryMultiPut keys/vals length mismatch")
	}
	m.d.Batch(func(g *Guard[T]) {
		for ; applied < len(keys); applied++ {
			if err = m.TryPutGuarded(g, keys[applied], vals[applied]); err != nil {
				return
			}
		}
	})
	return applied, err
}

// LenGuarded is Len on a caller-held guard.
func (m *HashMap[T]) LenGuarded(g *Guard[T]) int {
	n := 0
	for i := range m.buckets {
		for r := m.buckets[i].Load(); !r.IsNil(); {
			next := g.Load(r, mapNext)
			if !next.Marked() {
				n++
			}
			r = next.Unmarked()
		}
	}
	return n
}

package wfe

import (
	"wfe/internal/ds/crturn"
	"wfe/internal/ds/kpqueue"
)

// WFQueue is the Kogan–Petrank wait-free MPMC FIFO queue of T (PPoPP 2011)
// on the typed Domain façade — the paper's headline workload: combined with
// the WFE scheme every operation, reclamation included, completes in a
// bounded number of steps (Figures 5a/5b). It needs 3 protection slots per
// guard.
//
// The queue's phase-based helping protocol hands dequeued values across
// threads through a fixed-width handoff word, so the generic payload cannot
// travel inside the queue node itself. Each Enqueue instead boxes its value
// in a private block (holding the T in the Domain's value slab) and
// enqueues the box's handle; the winning dequeuer — the only goroutine that
// ever receives that handle — unboxes the value and returns the block to
// the arena. Boxes are never shared, so they need no reclamation-scheme
// round trip.
//
// The plain methods (Enqueue, Dequeue, Len) are guardless: each leases a
// guard from the Domain's guard runtime for the duration of the operation,
// so any number of goroutines may call them. The Guarded variants take an
// explicit or pinned Guard and skip the lease — use them in hot loops.
type WFQueue[T any] struct{ boxedQueue[T] }

// NewWFQueue creates an empty wait-free queue on the Domain. It leases a
// guard to allocate the sentinel node, parking briefly if all guards are
// busy. The queue registers the Domain's MaxGuards tids with the helping
// protocol, so guards from any acquisition path can drive it. It panics if
// the arena cannot supply the sentinel even after emergency reclamation.
func NewWFQueue[T any](d *Domain[T]) *WFQueue[T] {
	g := d.Pin()
	defer d.Unpin(g)
	return &WFQueue[T]{boxedQueue[T]{d, kpqueue.NewTid(liveScheme[T]{d}, d.guards.Cap(), g.tid)}}
}

// TurnQueue is the CRTurn wait-free MPMC FIFO queue of T (Ramalhete &
// Correia), the second wait-free structure of the paper's evaluation
// (Figures 5c/5d). Enqueuers announce nodes that helpers link in "turn"
// order; dequeuers announce requests that helpers satisfy by handing over
// the head's successor — so every operation completes within one full turn
// regardless of scheduling. It needs 2 protection slots per guard.
//
// Like WFQueue, the generic payload travels in a private value box rather
// than the queue node: the hand-off protocol moves a fixed-width word
// between threads, and the box's handle is that word. The receiving
// dequeuer — the only goroutine that ever gets the handle — unboxes the T
// and returns the block to the arena.
//
// The plain methods (Enqueue, Dequeue, Len) are guardless: each leases a
// guard from the Domain's guard runtime for the duration of the operation,
// so any number of goroutines may call them. The Guarded variants take an
// explicit or pinned Guard and skip the lease — use them in hot loops.
type TurnQueue[T any] struct{ boxedQueue[T] }

// NewTurnQueue creates an empty CRTurn queue on the Domain. It leases a
// guard to allocate the sentinel node, parking briefly if all guards are
// busy. The turn protocol's claim word holds at most 254 thread ids, so
// the Domain must be configured with MaxGuards < 255 — set it explicitly
// rather than inheriting the GOMAXPROCS default, which exceeds the limit
// on very large machines; larger configurations panic here, at
// construction, as does an arena that cannot supply the sentinel even
// after emergency reclamation.
func NewTurnQueue[T any](d *Domain[T]) *TurnQueue[T] {
	g := d.Pin()
	defer d.Unpin(g)
	return &TurnQueue[T]{boxedQueue[T]{d, crturn.NewTid(liveScheme[T]{d}, d.guards.Cap(), g.tid)}}
}

// tidQueue is the word queue a boxedQueue wraps: the internal wait-free
// queues, driven by the caller's guard tid. Enqueue allocates its node
// through the Domain's backpressure pipeline and reports false, leaving
// the queue untouched, when the arena stays exhausted.
type tidQueue interface {
	Enqueue(tid int, v uint64) bool
	Dequeue(tid int) (uint64, bool)
	Len() int
}

// boxedQueue is the body WFQueue and TurnQueue share: each value travels
// through the inner queue as the handle of a private box block.
type boxedQueue[T any] struct {
	d *Domain[T]
	q tidQueue
}

// Enqueue appends v.
func (q *boxedQueue[T]) Enqueue(v T) {
	g := q.d.Pin()
	defer q.d.unpin(g)
	q.EnqueueGuarded(g, v)
}

// Dequeue removes and returns the oldest value; ok is false when empty.
func (q *boxedQueue[T]) Dequeue() (v T, ok bool) {
	g := q.d.Pin()
	defer q.d.unpin(g)
	return q.DequeueGuarded(g)
}

// Len counts queued values; meaningful only quiescently.
func (q *boxedQueue[T]) Len() int {
	g := q.d.Pin()
	defer q.d.unpin(g)
	return q.LenGuarded(g)
}

// TryEnqueue is Enqueue with backpressure: when the arena stays
// exhausted after the Domain's emergency-reclamation pipeline it returns
// ErrArenaExhausted instead of panicking.
func (q *boxedQueue[T]) TryEnqueue(v T) error {
	g := q.d.Pin()
	defer q.d.unpin(g)
	return q.TryEnqueueGuarded(g, v)
}

// EnqueueGuarded is Enqueue on a caller-held guard.
func (q *boxedQueue[T]) EnqueueGuarded(g *Guard[T], v T) {
	if err := q.TryEnqueueGuarded(g, v); err != nil {
		panic(exhaustedPanic(q.d.arena.Capacity()))
	}
}

// TryEnqueueGuarded is TryEnqueue on a caller-held guard. The queue
// allocates its node before the operation protects anything; when that
// allocation reports exhaustion, the value box is reclaimed and the
// queue is left unchanged.
func (q *boxedQueue[T]) TryEnqueueGuarded(g *Guard[T], v T) (err error) {
	box, err := g.TryAlloc(v)
	if err != nil {
		return err
	}
	if !q.q.Enqueue(g.tid, box.handle()) {
		g.Dealloc(box)
		return ErrArenaExhausted
	}
	return nil
}

// DequeueGuarded is Dequeue on a caller-held guard.
func (q *boxedQueue[T]) DequeueGuarded(g *Guard[T]) (v T, ok bool) {
	h, ok := q.q.Dequeue(g.tid)
	if !ok {
		return v, false
	}
	// h is the value box's handle, delivered to exactly one dequeuer. The
	// box was never published as a traversable node, so no other goroutine
	// can hold it: unbox and free it directly, without a retire round trip.
	box := Ref[T]{h}
	v = g.Value(box)
	g.Dealloc(box)
	return v, true
}

// LenGuarded is Len on a caller-held guard.
func (q *boxedQueue[T]) LenGuarded(g *Guard[T]) int { return q.q.Len() }

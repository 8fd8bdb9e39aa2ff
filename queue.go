package wfe

// queue node layout: word 0 = next link.
const queueNext = 0

// queue protection slots: dequeue protects head then next; enqueue reuses
// slot 0 for the tail.
const (
	queueSlotFirst = 0
	queueSlotNext  = 1
	queueSlotLast  = 0
)

// Queue is a Michael–Scott lock-free MPMC FIFO queue of T on the typed
// Domain façade. It needs 2 protection slots per guard.
//
// The plain methods (Enqueue, Dequeue, Len) are guardless: each leases a
// guard from the Domain's guard runtime for the duration of the
// operation, so any number of goroutines may call them. The Guarded
// variants take an explicit or pinned Guard and skip the lease — use them
// in hot loops.
type Queue[T any] struct {
	d    *Domain[T]
	head Atomic[T]
	tail Atomic[T]
}

// NewQueue creates an empty queue on the Domain. It leases a guard to
// allocate the sentinel node, parking briefly if all guards are busy.
func NewQueue[T any](d *Domain[T]) *Queue[T] {
	q := &Queue[T]{d: d}
	g := d.Pin()
	defer d.Unpin(g)
	var zero T
	s := g.Alloc(zero)
	q.head.Store(s)
	q.tail.Store(s)
	return q
}

// Enqueue appends v.
func (q *Queue[T]) Enqueue(v T) {
	g := q.d.Pin()
	defer q.d.unpin(g)
	q.EnqueueGuarded(g, v)
}

// Dequeue removes and returns the oldest value; ok is false when empty.
func (q *Queue[T]) Dequeue() (v T, ok bool) {
	g := q.d.Pin()
	defer q.d.unpin(g)
	return q.DequeueGuarded(g)
}

// Len counts queued values; meaningful only quiescently.
func (q *Queue[T]) Len() int {
	g := q.d.Pin()
	defer q.d.unpin(g)
	return q.LenGuarded(g)
}

// TryEnqueue is Enqueue with backpressure: when the arena stays
// exhausted after the Domain's emergency-reclamation pipeline it returns
// ErrArenaExhausted instead of panicking.
func (q *Queue[T]) TryEnqueue(v T) error {
	g := q.d.Pin()
	defer q.d.unpin(g)
	return q.TryEnqueueGuarded(g, v)
}

// EnqueueGuarded is Enqueue on a caller-held guard.
func (q *Queue[T]) EnqueueGuarded(g *Guard[T], v T) {
	if err := q.TryEnqueueGuarded(g, v); err != nil {
		panic(exhaustedPanic(q.d.arena.Capacity()))
	}
}

// TryEnqueueGuarded is TryEnqueue on a caller-held guard.
func (q *Queue[T]) TryEnqueueGuarded(g *Guard[T], v T) error {
	// Allocate before entering the protected section (see Stack.TryPushGuarded).
	node, err := g.TryAlloc(v)
	if err != nil {
		return err
	}
	g.Begin()
	defer g.End()
	for {
		last := g.Protect(&q.tail, queueSlotLast)
		next := g.Load(last, queueNext)
		if q.tail.Load() != last {
			continue
		}
		if !next.IsNil() { // tail lagging: help advance
			q.tail.CompareAndSwap(last, next)
			continue
		}
		if g.CompareAndSwap(last, queueNext, Ref[T]{}, node) {
			q.tail.CompareAndSwap(last, node)
			return nil
		}
	}
}

// DequeueGuarded is Dequeue on a caller-held guard.
func (q *Queue[T]) DequeueGuarded(g *Guard[T]) (v T, ok bool) {
	g.Begin()
	defer g.End()
	for {
		first := g.Protect(&q.head, queueSlotFirst)
		last := q.tail.Load()
		next := g.ProtectWord(first, queueNext, queueSlotNext)
		if q.head.Load() != first {
			continue
		}
		if first == last {
			if next.IsNil() {
				return v, false
			}
			q.tail.CompareAndSwap(last, next) // tail lagging
			continue
		}
		if next.IsNil() {
			continue // stale snapshot
		}
		// Read the value before unlinking: next is still reachable from
		// head, so it is not retired and our protection covers it.
		v = g.Value(next)
		if q.head.CompareAndSwap(first, next) {
			g.Retire(first)
			return v, true
		}
	}
}

// LenGuarded is Len on a caller-held guard.
func (q *Queue[T]) LenGuarded(g *Guard[T]) int {
	n := 0
	for r := q.head.Load(); !r.IsNil(); r = g.Load(r, queueNext) {
		if !g.Load(r, queueNext).IsNil() {
			n++
		}
	}
	return n
}

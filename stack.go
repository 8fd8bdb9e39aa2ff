package wfe

// stack node layout: word 0 = next link.
const stackNext = 0

// Stack is a Treiber lock-free stack of T — the paper's usage example for
// the reclamation API (Figure 2), here on the typed Domain façade. It
// needs 1 protection slot per guard.
//
// The plain methods (Push, Pop, Len) are guardless: each leases a guard
// from the Domain's guard runtime for the duration of the operation, so
// any number of goroutines may call them. The Guarded variants take an
// explicit or pinned Guard and skip the lease — use them in hot loops.
type Stack[T any] struct {
	d   *Domain[T]
	top Atomic[T]
}

// NewStack creates an empty stack on the Domain.
func NewStack[T any](d *Domain[T]) *Stack[T] {
	return &Stack[T]{d: d}
}

// Push adds v to the top of the stack.
func (s *Stack[T]) Push(v T) {
	g := s.d.Pin()
	defer s.d.unpin(g)
	s.PushGuarded(g, v)
}

// Pop removes and returns the top value; ok is false on an empty stack.
func (s *Stack[T]) Pop() (v T, ok bool) {
	g := s.d.Pin()
	defer s.d.unpin(g)
	return s.PopGuarded(g)
}

// Len counts the nodes; it is only meaningful quiescently.
func (s *Stack[T]) Len() int {
	g := s.d.Pin()
	defer s.d.unpin(g)
	return s.LenGuarded(g)
}

// TryPush is Push with backpressure: when the arena stays exhausted
// after the Domain's emergency-reclamation pipeline it returns
// ErrArenaExhausted instead of panicking.
func (s *Stack[T]) TryPush(v T) error {
	g := s.d.Pin()
	defer s.d.unpin(g)
	return s.TryPushGuarded(g, v)
}

// PushGuarded is Push on a caller-held guard.
func (s *Stack[T]) PushGuarded(g *Guard[T], v T) {
	if err := s.TryPushGuarded(g, v); err != nil {
		panic(exhaustedPanic(s.d.arena.Capacity()))
	}
}

// TryPushGuarded is TryPush on a caller-held guard.
func (s *Stack[T]) TryPushGuarded(g *Guard[T], v T) error {
	// Allocate before entering the protected section: if the arena is
	// exhausted, the emergency pipeline then stalls with no protection
	// announced, so it cannot pin the epoch or any era against the
	// concurrent scans it is waiting on.
	n, err := g.TryAlloc(v)
	if err != nil {
		return err
	}
	g.Begin()
	defer g.End()
	for {
		old := s.top.Load()
		g.Store(n, stackNext, old)
		if s.top.CompareAndSwap(old, n) {
			return nil
		}
	}
}

// PopGuarded is Pop on a caller-held guard.
func (s *Stack[T]) PopGuarded(g *Guard[T]) (v T, ok bool) {
	g.Begin()
	defer g.End()
	for {
		top := g.Protect(&s.top, 0)
		if top.IsNil() {
			return v, false
		}
		next := g.Load(top, stackNext)
		if s.top.CompareAndSwap(top, next) {
			v = g.Value(top)
			g.Retire(top)
			return v, true
		}
	}
}

// LenGuarded is Len on a caller-held guard.
func (s *Stack[T]) LenGuarded(g *Guard[T]) int {
	n := 0
	for r := s.top.Load(); !r.IsNil(); r = g.Load(r, stackNext) {
		n++
	}
	return n
}

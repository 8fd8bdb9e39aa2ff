package leak

import (
	"sync/atomic"
	"testing"

	"wfe/internal/mem"
	"wfe/internal/reclaim"
)

func TestLeakBaseline(t *testing.T) {
	a := mem.New(mem.Config{Capacity: 64, MaxThreads: 2, Debug: true})
	l := New(a, reclaim.Config{MaxThreads: 2})

	if l.Name() != "Leak" || l.Arena() != a {
		t.Fatal("identity accessors broken")
	}

	var root atomic.Uint64
	h := mustAlloc(l, 0)
	root.Store(h)
	l.Begin(0)
	if got := l.GetProtected(0, &root, 0, 0); got != h {
		t.Fatalf("GetProtected = %d, want %d", got, h)
	}
	l.Clear(0)

	l.Retire(0, h)
	l.Retire(1, mustAlloc(l, 1))
	if !a.Live(h) {
		t.Fatal("leak baseline freed a block")
	}
	if l.Retirer().Unreclaimed() != 2 {
		t.Fatalf("unreclaimed = %d, want 2", l.Retirer().Unreclaimed())
	}
	if a.Stats().Frees != 0 {
		t.Fatal("leak baseline performed frees")
	}
}

// mustAlloc allocates for tests whose arena is sized for the workload: it
// panics on exhaustion, from any goroutine.
func mustAlloc(a interface{ Alloc(int) (mem.Handle, bool) }, tid int) mem.Handle {
	h, ok := a.Alloc(tid)
	if !ok {
		panic("test arena exhausted")
	}
	return h
}

// Package stack tests the public wfe.Stack, the Treiber stack.
package stack

import (
	"sync"
	"testing"

	"wfe"
	"wfe/internal/ds/pubtest"
)

var allSchemes = []string{"WFE", "WFE-slow", "HE", "HP", "EBR", "2GEIBR", "WFE-IBR", "Leak"}

func newStack(t *testing.T, name string, threads, capacity int) (*wfe.Stack[uint64], *wfe.Domain[uint64]) {
	t.Helper()
	d := pubtest.NewDomain(t, name, threads, capacity)
	return wfe.NewStack[uint64](d), d
}

func TestLIFO(t *testing.T) {
	for _, name := range allSchemes {
		t.Run(name, func(t *testing.T) {
			st, _ := newStack(t, name, 1, 1<<12)
			if _, ok := st.Pop(); ok {
				t.Fatal("pop from empty stack succeeded")
			}
			for v := uint64(1); v <= 100; v++ {
				st.Push(v)
			}
			if st.Len() != 100 {
				t.Fatalf("Len = %d", st.Len())
			}
			for v := uint64(100); v >= 1; v-- {
				got, ok := st.Pop()
				if !ok || got != v {
					t.Fatalf("Pop = %d,%v; want %d", got, ok, v)
				}
			}
			if _, ok := st.Pop(); ok {
				t.Fatal("drained stack not empty")
			}
		})
	}
}

// TestConservation pushes disjoint value ranges from every worker while
// popping concurrently; afterwards every pushed value must have been popped
// exactly once or remain on the stack. Each worker holds one guard for its
// whole run, as a fixed-tid thread would.
func TestConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	const (
		workers   = 4
		perWorker = 10000
	)
	for _, name := range allSchemes {
		t.Run(name, func(t *testing.T) {
			capacity := 1 << 17
			if name == "Leak" {
				capacity = workers*perWorker + 1024
			}
			st, d := newStack(t, name, workers, capacity)
			popped := make([][]uint64, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					g := d.Guard()
					defer g.Release()
					base := uint64(tid) * perWorker
					for i := 0; i < perWorker; i++ {
						st.PushGuarded(g, base+uint64(i)+1)
						if i%2 == 0 {
							if v, ok := st.PopGuarded(g); ok {
								popped[tid] = append(popped[tid], v)
							}
						}
					}
				}(w)
			}
			wg.Wait()

			seen := make(map[uint64]int)
			for _, vs := range popped {
				for _, v := range vs {
					seen[v]++
				}
			}
			for {
				v, ok := st.Pop()
				if !ok {
					break
				}
				seen[v]++
			}
			if len(seen) != workers*perWorker {
				t.Fatalf("%s: %d distinct values accounted for, want %d", name, len(seen), workers*perWorker)
			}
			for v, n := range seen {
				if n != 1 {
					t.Fatalf("%s: value %d observed %d times", name, v, n)
				}
			}
			if name != "Leak" && d.Unreclaimed() > 10000 {
				t.Fatalf("%s: unreclaimed backlog %d too large", name, d.Unreclaimed())
			}
		})
	}
}

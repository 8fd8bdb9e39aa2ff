// Guard-runtime benchmarks: the lock-free pool against the mutex freelist
// it replaced, the bare lease (Pin+Unpin) on its own, and the guardless API
// against pinned and per-op-acquired guards. They report costs; no test
// gates on their ratios.
package wfe_test

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"wfe"
	"wfe/internal/guardpool"
)

// mutexPool replicates the freelist the Domain used before the guard
// runtime: a slice of free tids behind a sync.Mutex. It exists only as
// the benchmark baseline.
type mutexPool struct {
	mu   sync.Mutex
	free []int
}

func newMutexPool(n int) *mutexPool {
	p := &mutexPool{free: make([]int, n)}
	for i := range p.free {
		p.free[i] = n - 1 - i
	}
	return p
}

func (p *mutexPool) TryAcquire() (int, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.free)
	if n == 0 {
		return 0, false
	}
	tid := p.free[n-1]
	p.free = p.free[:n-1]
	return tid, true
}

func (p *mutexPool) Release(tid int) {
	p.mu.Lock()
	p.free = append(p.free, tid)
	p.mu.Unlock()
}

// BenchmarkGuardAcquireRelease measures one acquire/release round trip on
// the lock-free pool versus the mutex baseline, uncontended (one
// goroutine) and contended (GOMAXPROCS goroutines over GOMAXPROCS ids).
func BenchmarkGuardAcquireRelease(b *testing.B) {
	n := runtime.GOMAXPROCS(0)
	b.Run("lockfree-uncontended", func(b *testing.B) {
		p := guardpool.New(n)
		for i := 0; i < b.N; i++ {
			tid, _ := p.TryAcquire()
			p.Release(tid)
		}
	})
	b.Run("mutex-uncontended", func(b *testing.B) {
		p := newMutexPool(n)
		for i := 0; i < b.N; i++ {
			tid, _ := p.TryAcquire()
			p.Release(tid)
		}
	})
	b.Run("lockfree-contended", func(b *testing.B) {
		p := guardpool.New(n)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if tid, ok := p.TryAcquire(); ok {
					p.Release(tid)
				}
			}
		})
	})
	b.Run("mutex-contended", func(b *testing.B) {
		p := newMutexPool(n)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if tid, ok := p.TryAcquire(); ok {
					p.Release(tid)
				}
			}
		})
	})
}

// BenchmarkPinUnpin measures one lease round trip — a Pin followed by an
// Unpin, the per-operation cost every guardless structure method pays —
// at GOMAXPROCS goroutines. Each goroutine's lease is a cache hit on its
// own guard, so the number is the lease fast path plus whatever cache
// traffic it shares with the other goroutines' leases.
func BenchmarkPinUnpin(b *testing.B) {
	d, err := wfe.NewDomain[uint64](wfe.Options{Capacity: 1 << 12})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			d.Unpin(d.Pin())
		}
	})
}

// BenchmarkGuardedOps compares the acquisition paths at GOMAXPROCS
// goroutines. On a stack push/pop pair it reports pinned (one lease for
// the whole run — the floor), guardless (one lease per operation) and
// acquire-per-op (a pool round trip per push/pop pair — what guardless
// would cost without the lease cache). On a hash map churn (100k-key
// range, 50k keys prefilled, 50/50 TryInsert/Delete) it reports
// hashmap-pinned and hashmap-guardless. Pinned against guardless on one
// structure is what leasing per operation costs there.
func BenchmarkGuardedOps(b *testing.B) {
	newStack := func(b *testing.B) (*wfe.Domain[uint64], *wfe.Stack[uint64]) {
		b.Helper()
		d, err := wfe.NewDomain[uint64](wfe.Options{Capacity: 1 << 20})
		if err != nil {
			b.Fatal(err)
		}
		return d, wfe.NewStack[uint64](d)
	}
	b.Run("pinned", func(b *testing.B) {
		d, s := newStack(b)
		b.RunParallel(func(pb *testing.PB) {
			g := d.Pin()
			defer d.Unpin(g)
			for pb.Next() {
				s.PushGuarded(g, 1)
				s.PopGuarded(g)
			}
		})
	})
	b.Run("guardless", func(b *testing.B) {
		_, s := newStack(b)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				s.Push(1)
				s.Pop()
			}
		})
	})
	b.Run("acquire-per-op", func(b *testing.B) {
		d, s := newStack(b)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				g, ok := d.TryGuard()
				if !ok {
					continue
				}
				s.PushGuarded(g, 1)
				s.PopGuarded(g)
				g.Release()
			}
		})
	})
	const churnRange, churnPrefill = 100_000, 50_000
	newMap := func(b *testing.B) (*wfe.Domain[uint64], *wfe.HashMap[uint64]) {
		b.Helper()
		d, err := wfe.NewDomain[uint64](wfe.Options{Capacity: 1 << 20})
		if err != nil {
			b.Fatal(err)
		}
		m := wfe.NewHashMap[uint64](d, churnRange)
		for i := 0; i < churnPrefill; i++ {
			m.Insert(uint64(i)*2, uint64(i))
		}
		return d, m
	}
	var seed atomic.Uint64
	b.Run("hashmap-pinned", func(b *testing.B) {
		d, m := newMap(b)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			g := d.Pin()
			defer d.Unpin(g)
			r := rand.New(rand.NewPCG(seed.Add(1), 0))
			for pb.Next() {
				k := r.Uint64N(churnRange)
				if r.Uint64()&1 == 0 {
					m.TryInsertGuarded(g, k, k)
				} else {
					m.DeleteGuarded(g, k)
				}
			}
		})
	})
	b.Run("hashmap-guardless", func(b *testing.B) {
		_, m := newMap(b)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			r := rand.New(rand.NewPCG(seed.Add(1), 0))
			for pb.Next() {
				k := r.Uint64N(churnRange)
				if r.Uint64()&1 == 0 {
					m.TryInsert(k, k)
				} else {
					m.Delete(k)
				}
			}
		})
	})
}

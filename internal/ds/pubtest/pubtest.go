// Package pubtest is the shared conformance suite for the public map
// structures (wfe.HashMap and wfe.Tree): sequential semantics, a
// randomized model-equivalence property test, and a concurrent
// net-membership stress run under every reclamation scheme with the
// arena's use-after-free detection armed.
//
// Workers drive the structure the way the paper's threads do with a fixed
// tid: each holds one explicitly acquired Guard for its whole run and uses
// the Guarded methods.
package pubtest

import (
	"math/rand"
	"sync"
	"testing"

	"wfe"
	"wfe/internal/bench"
)

// Map is the operation set under test, shared by wfe.HashMap and wfe.Tree.
type Map interface {
	InsertGuarded(g *wfe.Guard[uint64], key, val uint64) bool
	DeleteGuarded(g *wfe.Guard[uint64], key uint64) bool
	GetGuarded(g *wfe.Guard[uint64], key uint64) (uint64, bool)
	PutGuarded(g *wfe.Guard[uint64], key, val uint64)
	LenGuarded(g *wfe.Guard[uint64]) int
}

// Builder constructs the map under test on the given Domain.
type Builder func(d *wfe.Domain[uint64]) Map

// schemesUnderTest exercises every reclaiming scheme plus the forced-slow
// configurations of the wait-free ones; Leak is covered implicitly (no
// reclamation to break).
var schemesUnderTest = []string{"WFE", "WFE-slow", "HE", "HP", "EBR", "2GEIBR", "WFE-IBR", "WFE-IBR-slow"}

// NewDomain builds a debug-arena Domain running the named scheme (a
// legend name, optionally with the "-slow" suffix that forces WFE's and
// WFE-IBR's helping path) for up to guards concurrent guards.
func NewDomain(t testing.TB, scheme string, guards, capacity int) *wfe.Domain[uint64] {
	t.Helper()
	kind, slow, err := bench.ParseScheme(scheme)
	if err != nil {
		t.Fatal(err)
	}
	d, err := wfe.NewDomain[uint64](wfe.Options{
		Scheme: kind, ForceSlowPath: slow, Capacity: capacity, MaxGuards: guards,
		EraFreq: 32, CleanupFreq: 8, Debug: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// RunMapSuite runs the full conformance suite for a map-like structure.
func RunMapSuite(t *testing.T, build Builder) {
	t.Run("Sequential", func(t *testing.T) { runSequential(t, build) })
	t.Run("Model", func(t *testing.T) { runModel(t, build) })
	for _, name := range schemesUnderTest {
		t.Run("Stress/"+name, func(t *testing.T) { runStress(t, build, name) })
	}
}

func runSequential(t *testing.T, build Builder) {
	d := NewDomain(t, "WFE", 1, 1<<12)
	m := build(d)
	g := d.Guard()
	defer g.Release()

	if _, ok := m.GetGuarded(g, 10); ok {
		t.Fatal("empty map contains 10")
	}
	if !m.InsertGuarded(g, 10, 10) {
		t.Fatal("insert into empty map failed")
	}
	if m.InsertGuarded(g, 10, 10) {
		t.Fatal("duplicate insert succeeded")
	}
	if _, ok := m.GetGuarded(g, 10); !ok {
		t.Fatal("inserted key missing")
	}
	if m.DeleteGuarded(g, 11) {
		t.Fatal("deleted an absent key")
	}
	if !m.DeleteGuarded(g, 10) {
		t.Fatal("delete of present key failed")
	}
	if _, ok := m.GetGuarded(g, 10); ok {
		t.Fatal("deleted key still present")
	}
	// Put must work as both insert and refresh.
	m.PutGuarded(g, 20, 1)
	m.PutGuarded(g, 20, 2)
	if v, ok := m.GetGuarded(g, 20); !ok || v != 2 {
		t.Fatalf("put key: Get = %d,%v; want 2,true", v, ok)
	}

	// Ordered bulk round-trip.
	for k := uint64(1); k <= 100; k++ {
		if !m.InsertGuarded(g, k*3, k) {
			t.Fatalf("bulk insert %d failed", k*3)
		}
	}
	for k := uint64(1); k <= 100; k++ {
		if v, ok := m.GetGuarded(g, k*3); !ok || v != k {
			t.Fatalf("bulk key %d: Get = %d,%v", k*3, v, ok)
		}
		if _, ok := m.GetGuarded(g, k*3+1); ok {
			t.Fatalf("phantom key %d present", k*3+1)
		}
	}
	for k := uint64(1); k <= 100; k++ {
		if !m.DeleteGuarded(g, k*3) {
			t.Fatalf("bulk delete %d failed", k*3)
		}
	}
	if n := m.LenGuarded(g); n != 1 {
		t.Fatalf("Len after bulk round-trip = %d, want 1", n)
	}
}

// runModel replays random operation sequences against map[uint64]bool and
// requires identical observable results, including reclamation churn from
// repeated delete/insert of the same keys.
func runModel(t *testing.T, build Builder) {
	for seed := int64(1); seed <= 5; seed++ {
		d := NewDomain(t, "WFE", 1, 1<<14)
		m := build(d)
		g := d.Guard()
		model := make(map[uint64]bool)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 5000; i++ {
			key := uint64(rng.Intn(64))
			switch rng.Intn(4) {
			case 0:
				want := !model[key]
				if got := m.InsertGuarded(g, key, key); got != want {
					t.Fatalf("seed %d op %d: Insert(%d) = %v, model says %v", seed, i, key, got, want)
				}
				model[key] = true
			case 1:
				want := model[key]
				if got := m.DeleteGuarded(g, key); got != want {
					t.Fatalf("seed %d op %d: Delete(%d) = %v, model says %v", seed, i, key, got, want)
				}
				delete(model, key)
			case 2:
				want := model[key]
				if _, got := m.GetGuarded(g, key); got != want {
					t.Fatalf("seed %d op %d: Get(%d) = %v, model says %v", seed, i, key, got, want)
				}
			case 3:
				m.PutGuarded(g, key, key)
				model[key] = true
			}
		}
		if n := m.LenGuarded(g); n != len(model) {
			t.Fatalf("seed %d: Len = %d, model holds %d", seed, n, len(model))
		}
		g.Release()
	}
}

// runStress hammers the structure from several goroutines and checks the
// per-key accounting invariant: successful inserts and deletes of one key
// strictly alternate, so netInserts-netDeletes ∈ {0,1} and equals the final
// membership. The debug arena turns any premature reclamation into a panic.
func runStress(t *testing.T, build Builder, schemeName string) {
	if testing.Short() {
		t.Skip("stress test")
	}
	const (
		workers  = 4
		keyRange = 64
		iters    = 15000
	)
	d := NewDomain(t, schemeName, workers, 1<<17)
	m := build(d)

	type counters struct{ ins, del [keyRange]uint64 }
	perWorker := make([]counters, workers)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			g := d.Guard()
			defer g.Release()
			rng := rand.New(rand.NewSource(int64(tid) + 42))
			c := &perWorker[tid]
			for i := 0; i < iters; i++ {
				key := uint64(rng.Intn(keyRange))
				switch rng.Intn(3) {
				case 0:
					if m.InsertGuarded(g, key, key) {
						c.ins[key]++
					}
				case 1:
					if m.DeleteGuarded(g, key) {
						c.del[key]++
					}
				case 2:
					if v, ok := m.GetGuarded(g, key); ok && v != key {
						t.Errorf("%s: Get(%d) = %d", schemeName, key, v)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	g := d.Guard()
	defer g.Release()
	for key := uint64(0); key < keyRange; key++ {
		var ins, del uint64
		for w := range perWorker {
			ins += perWorker[w].ins[key]
			del += perWorker[w].del[key]
		}
		net := int64(ins) - int64(del)
		if net != 0 && net != 1 {
			t.Fatalf("%s: key %d net count %d (ins=%d del=%d)", schemeName, key, net, ins, del)
		}
		if _, got := m.GetGuarded(g, key); got != (net == 1) {
			t.Fatalf("%s: key %d present=%v but net=%d", schemeName, key, got, net)
		}
	}
	if d.ArenaCensus().Live == 0 {
		t.Fatalf("%s: arena reports nothing in use after stress (bookkeeping broken?)", schemeName)
	}
}

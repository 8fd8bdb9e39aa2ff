package he

import (
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"wfe/internal/mem"
	"wfe/internal/pack"
	"wfe/internal/reclaim"
)

func newHE(t *testing.T, cfg reclaim.Config) (*HE, *mem.Arena) {
	t.Helper()
	if cfg.MaxThreads == 0 {
		cfg.MaxThreads = 2
	}
	a := mem.New(mem.Config{Capacity: 1 << 12, MaxThreads: cfg.MaxThreads, Debug: true})
	return New(a, cfg), a
}

func TestEraAdvancesOnAllocFrequency(t *testing.T) {
	h, _ := newHE(t, reclaim.Config{MaxThreads: 1, EraFreq: 10})
	e0 := h.Era()
	// The first alloc (count 0) advances; the next nine must not.
	mustAlloc(h, 0)
	if h.Era() != e0+1 {
		t.Fatalf("era = %d after first alloc, want %d", h.Era(), e0+1)
	}
	for i := 0; i < 9; i++ {
		mustAlloc(h, 0)
	}
	if h.Era() != e0+1 {
		t.Fatalf("era = %d after 10 allocs, want %d", h.Era(), e0+1)
	}
	mustAlloc(h, 0) // 11th: crosses the frequency boundary
	if h.Era() != e0+2 {
		t.Fatalf("era = %d after 11 allocs, want %d", h.Era(), e0+2)
	}
}

func TestRetireAdvancesEraOnlyWhenCurrent(t *testing.T) {
	// The paper's race fix: retire() advances the era only if the block's
	// retire era still equals the global era at the check.
	h, _ := newHE(t, reclaim.Config{MaxThreads: 1, EraFreq: 1 << 30, CleanupFreq: 1})
	blk := mustAlloc(h, 0)
	e0 := h.Era()
	h.Retire(0, blk)
	if h.Era() != e0+1 {
		t.Fatalf("era = %d, want %d (retire of current-era block must advance)", h.Era(), e0+1)
	}
}

func TestCanDeleteBoundaries(t *testing.T) {
	h, a := newHE(t, reclaim.Config{MaxThreads: 1})
	blk := mustAlloc(h, 0)
	a.SetAllocEra(blk, 10)
	a.SetRetireEra(blk, 20)
	cases := []struct {
		era  uint64
		want bool // canDelete
	}{
		{9, true},   // before lifespan
		{10, false}, // at alloc era
		{15, false}, // inside
		{20, false}, // at retire era
		{21, true},  // after lifespan
	}
	for _, c := range cases {
		for _, linear := range []bool{true, false} {
			if got := h.canDelete(blk, []uint64{c.era}, linear); got != c.want {
				t.Errorf("canDelete(linear=%v) with reservation era %d = %v, want %v", linear, c.era, got, c.want)
			}
		}
	}
	if !h.canDelete(blk, nil, false) {
		t.Error("canDelete with no reservations = false")
	}
}

func TestSortedScanMatchesLinearOracle(t *testing.T) {
	// Property: on randomized reservation/era sets, the sorted-snapshot
	// membership test reaches exactly the free/keep decision of the
	// pre-overhaul linear sweep (the retained oracle).
	rng := rand.New(rand.NewSource(20260729))
	for iter := 0; iter < 500; iter++ {
		eras := make([]uint64, rng.Intn(65))
		for i := range eras {
			eras[i] = uint64(rng.Intn(120)) + 1
		}
		sorted := slices.Clone(eras)
		slices.Sort(sorted)
		for b := 0; b < 32; b++ {
			lo := uint64(rng.Intn(120)) + 1
			hi := lo + uint64(rng.Intn(16))
			want := eraReservedLinear(eras, lo, hi)
			if got := reclaim.ReservedInRange(sorted, lo, hi); got != want {
				t.Fatalf("lifespan [%d,%d] vs eras %v: sorted=%v linear=%v",
					lo, hi, eras, got, want)
			}
		}
	}
}

func TestGetProtectedPublishesEra(t *testing.T) {
	h, _ := newHE(t, reclaim.Config{MaxThreads: 1})
	var root atomic.Uint64
	blk := mustAlloc(h, 0)
	root.Store(blk)
	h.globalEra.Add(3) // force a reservation refresh
	got := h.GetProtected(0, &root, 2, 0)
	if got != blk {
		t.Fatalf("GetProtected = %d, want %d", got, blk)
	}
	if e := h.resv(0, 2).Load(); e != h.Era() {
		t.Fatalf("reservation era %d, want %d", e, h.Era())
	}
	h.Clear(0)
	if e := h.resv(0, 2).Load(); e != pack.Inf {
		t.Fatal("Clear left the reservation set")
	}
}

func TestMaxStepsGrowsUnderEraMovement(t *testing.T) {
	h, _ := newHE(t, reclaim.Config{MaxThreads: 1})
	var root atomic.Uint64
	root.Store(mustAlloc(h, 0))
	h.GetProtected(0, &root, 0, 0)
	if h.Retirer().MaxSteps() < 1 {
		t.Fatal("MaxSteps not recorded")
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

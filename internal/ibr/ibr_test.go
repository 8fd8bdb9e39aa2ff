package ibr

import (
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"wfe/internal/mem"
	"wfe/internal/pack"
	"wfe/internal/reclaim"
)

func newIBR(t *testing.T, threads int) (*IBR, *mem.Arena) {
	t.Helper()
	a := mem.New(mem.Config{Capacity: 1 << 12, MaxThreads: threads, Debug: true})
	return New(a, reclaim.Config{MaxThreads: threads, CleanupFreq: 1, EraFreq: 1}), a
}

func TestIntervalOverlapSemantics(t *testing.T) {
	ib, a := newIBR(t, 1)
	blk := mustAlloc(ib, 0)
	a.SetAllocEra(blk, 10) // lifespan [10, 20]
	a.SetRetireEra(blk, 20)

	cases := []struct {
		lo, hi uint64
		want   bool // canDelete
	}{
		{1, 9, true},    // interval entirely before birth
		{21, 30, true},  // entirely after retirement
		{1, 10, false},  // touches birth
		{20, 25, false}, // touches retirement
		{12, 15, false}, // nested inside
		{5, 30, false},  // covers the lifespan
	}
	for _, c := range cases {
		for _, linear := range []bool{true, false} {
			if got := ib.canDelete(blk, []uint64{c.lo}, []uint64{c.hi}, linear); got != c.want {
				t.Errorf("canDelete(linear=%v) vs interval [%d,%d] = %v, want %v", linear, c.lo, c.hi, got, c.want)
			}
		}
	}
	if !ib.canDelete(blk, nil, nil, false) {
		t.Error("canDelete with no intervals = false")
	}
}

func TestSortedScanMatchesLinearOracle(t *testing.T) {
	// Property: on randomized reservation-interval sets, the
	// sorted-endpoint counting test reaches exactly the free/keep decision
	// of the pre-overhaul paired linear sweep (the retained oracle) —
	// including intervals left half-open at Inf by a racing Clear.
	rng := rand.New(rand.NewSource(20260729))
	for iter := 0; iter < 500; iter++ {
		n := rng.Intn(48)
		los := make([]uint64, n)
		his := make([]uint64, n)
		for i := range los {
			los[i] = uint64(rng.Intn(120)) + 1
			if rng.Intn(16) == 0 {
				his[i] = pack.Inf // gather raced a Begin/Clear hand-over
			} else {
				his[i] = los[i] + uint64(rng.Intn(20))
			}
		}
		sortedLos := slices.Clone(los)
		sortedHis := slices.Clone(his)
		slices.Sort(sortedLos)
		slices.Sort(sortedHis)
		for b := 0; b < 32; b++ {
			birth := uint64(rng.Intn(120)) + 1
			retire := birth + uint64(rng.Intn(16))
			want := intervalReservedLinear(los, his, birth, retire)
			if got := reclaim.IntervalsOverlap(sortedLos, sortedHis, birth, retire); got != want {
				t.Fatalf("lifespan [%d,%d] vs intervals (%v,%v): sorted=%v linear=%v",
					birth, retire, los, his, got, want)
			}
		}
	}
}

func TestBeginResetsInterval(t *testing.T) {
	ib, _ := newIBR(t, 1)
	ib.globalEra.Store(42)
	ib.Begin(0)
	iv := &ib.intervals[0]
	if iv.lower.Load() != 42 || iv.upper.Load() != 42 {
		t.Fatalf("interval = [%d,%d], want [42,42]", iv.lower.Load(), iv.upper.Load())
	}
	ib.Clear(0)
	if iv.lower.Load() != pack.Inf {
		t.Fatal("Clear did not release the interval")
	}
}

func TestGetProtectedStretchesUpper(t *testing.T) {
	ib, _ := newIBR(t, 1)
	ib.Begin(0)
	lo := ib.intervals[0].lower.Load()
	ib.globalEra.Add(7)
	var root atomic.Uint64
	blk := mustAlloc(ib, 0)
	root.Store(blk)
	if got := ib.GetProtected(0, &root, 0, 0); got != blk {
		t.Fatalf("GetProtected = %d", got)
	}
	iv := &ib.intervals[0]
	if iv.lower.Load() != lo {
		t.Fatal("lower bound moved during the operation")
	}
	if iv.upper.Load() != ib.Era() {
		t.Fatalf("upper = %d, want the current era %d", iv.upper.Load(), ib.Era())
	}
}

func TestRetireAdvancesEraWithoutAllocs(t *testing.T) {
	// Retire-only phases must still make reclamation progress (drain
	// scenario): the era advances on retirement too.
	ib, a := newIBR(t, 1)
	blks := make([]mem.Handle, 40)
	for i := range blks {
		blks[i] = mustAlloc(ib, 0)
	}
	for _, b := range blks {
		ib.Retire(0, b)
	}
	freed := 0
	for _, b := range blks {
		if !a.Live(b) {
			freed++
		}
	}
	if freed == 0 {
		t.Fatal("no blocks reclaimed during a retire-only phase")
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

// Package ibr implements 2GEIBR, the tagged-pointer-free variant of
// interval-based reclamation (Wen et al., PPoPP 2018) the paper benchmarks
// against. Every block carries a birth era and a retire era; every thread
// maintains one reservation interval [lower, upper] spanning its current
// operation. A retired block is freed when its lifespan interval overlaps no
// thread's reservation interval.
//
// Like Hazard Eras, the upper-bound refresh loop in GetProtected is
// lock-free, not wait-free; the paper notes WFE's construction applies to
// 2GEIBR as well.
//
// Paper mapping: §2.4's description of interval-based reclamation and the
// "2GEIBR" series of the evaluation figures (§5); the remark that "our
// approach is applicable to the 2GEIBR version" is implemented in
// internal/wfeibr.
//
// The retire side lives in the shared reclaim.Retirer; this package
// contributes the era clock, the interval matrix, and its interval Judge
// (Gather the open intervals, CanFree every block whose lifespan overlaps
// none). The retire-driven era advance rides the runtime's OnRetire hook.
package ibr

import (
	"sync/atomic"

	"wfe/internal/mem"
	"wfe/internal/pack"
	"wfe/internal/reclaim"
	"wfe/internal/trace"
)

type threadState struct {
	allocCount uint64
	_          [64]byte
}

// interval is one thread's padded reservation [lower, upper].
type interval struct {
	lower atomic.Uint64
	upper atomic.Uint64
	_     [48]byte
}

// IBR is the 2GEIBR scheme.
type IBR struct {
	arena     *mem.Arena
	cfg       reclaim.Config
	rt        *reclaim.Retirer
	globalEra atomic.Uint64
	intervals []interval
	threads   []threadState
}

var _ reclaim.Scheme = (*IBR)(nil)
var _ reclaim.Judge = (*IBR)(nil)
var _ reclaim.RetireObserver = (*IBR)(nil)
var _ reclaim.Kinder = (*IBR)(nil)

// JudgeKind implements reclaim.Kinder: 2GEIBR judges by interval overlap
// (two binary searches per retired block), so its auto-calibrated
// SortCutoff uses the interval crossover.
func (ib *IBR) JudgeKind() reclaim.JudgeKind { return reclaim.IntervalJudge }

// New creates a 2GEIBR scheme over the given arena.
func New(arena *mem.Arena, cfg reclaim.Config) *IBR {
	cfg = cfg.Defaults()
	ib := &IBR{
		arena:     arena,
		cfg:       cfg,
		intervals: make([]interval, cfg.MaxThreads),
		threads:   make([]threadState, cfg.MaxThreads),
	}
	ib.rt = reclaim.NewRetirer(arena, cfg, ib)
	ib.globalEra.Store(max(1, cfg.InitialEra))
	for i := range ib.intervals {
		ib.intervals[i].lower.Store(pack.Inf)
		ib.intervals[i].upper.Store(pack.Inf)
	}
	return ib
}

// Name implements reclaim.Scheme.
func (ib *IBR) Name() string { return "2GEIBR" }

// Arena implements reclaim.Scheme.
func (ib *IBR) Arena() *mem.Arena { return ib.arena }

// Retirer implements reclaim.Scheme.
func (ib *IBR) Retirer() *reclaim.Retirer { return ib.rt }

// Era returns the current global era clock value.
func (ib *IBR) Era() uint64 { return ib.globalEra.Load() }

// Begin starts a fresh reservation interval at the current era.
func (ib *IBR) Begin(tid int) {
	e := ib.globalEra.Load()
	iv := &ib.intervals[tid]
	iv.upper.Store(e)
	iv.lower.Store(e)
}

// GetProtected stretches the thread's upper reservation until the global
// era stabilises across a read of src. Each call's iteration count feeds
// the shared step histogram — the same lock-free unboundedness as Hazard
// Eras', observable.
func (ib *IBR) GetProtected(tid int, src *atomic.Uint64, index int, parent mem.Handle) uint64 {
	iv := &ib.intervals[tid]
	prev := iv.upper.Load()
	for steps := uint64(1); ; steps++ {
		ret := src.Load()
		cur := ib.globalEra.Load()
		if prev == cur {
			ib.rt.RecordSteps(tid, steps)
			return ret
		}
		iv.upper.Store(cur)
		prev = cur
	}
}

// Clear ends the operation's interval.
func (ib *IBR) Clear(tid int) {
	iv := &ib.intervals[tid]
	iv.lower.Store(pack.Inf)
	iv.upper.Store(pack.Inf)
}

// Alloc stamps the block's birth era and periodically advances the clock.
// The cadence ticks even when the arena is exhausted, which reports
// (0, false).
func (ib *IBR) Alloc(tid int) (mem.Handle, bool) {
	t := &ib.threads[tid]
	if t.allocCount%uint64(ib.cfg.EraFreq) == 0 {
		ib.advanceEra(tid)
	}
	t.allocCount++
	blk, ok := ib.arena.Alloc(tid)
	if !ok {
		return 0, false
	}
	ib.arena.SetAllocEra(blk, ib.globalEra.Load())
	return blk, true
}

// AdvanceClock ticks the global era out of the allocation cadence
// (reclaim.ClockAdvancer) — the emergency-reclamation hook.
func (ib *IBR) AdvanceClock(tid int) { ib.advanceEra(tid) }

// Retire stamps the retire era and hands the block to the shared
// retire-side runtime.
func (ib *IBR) Retire(tid int, blk mem.Handle) {
	ib.arena.SetRetireEra(blk, ib.globalEra.Load())
	ib.rt.Retire(tid, blk)
}

// OnRetire implements reclaim.RetireObserver: the era also advances on
// retirement (not just allocation) so that retire-heavy phases with no
// allocations still make reclamation progress.
func (ib *IBR) OnRetire(tid int, n uint64, blk mem.Handle) {
	if n%uint64(ib.cfg.EraFreq) == 0 {
		ib.advanceEra(tid)
	}
}

// advanceEra bumps the clock, guarding the 38-bit packing bound.
func (ib *IBR) advanceEra(tid int) {
	era := ib.globalEra.Add(1)
	if era >= pack.MaxEra {
		panic("ibr: era clock exhausted (2^38 increments); see pack's width accounting")
	}
	ib.cfg.Tracer.Emit(tid, trace.KindEraAdvance, era, 0)
}

// Gather implements reclaim.Judge: snapshot the open reservation intervals
// once per scan (conservative in the same way as the per-block re-scan;
// see the HE gather comment).
func (ib *IBR) Gather(tid int, s *reclaim.Snapshot) {
	for i := 0; i < ib.cfg.MaxThreads; i++ {
		iv := &ib.intervals[i]
		lower := iv.lower.Load()
		if lower == pack.Inf {
			continue
		}
		s.AddInterval(lower, iv.upper.Load())
	}
}

// CanFree implements reclaim.Judge via canDelete, which retains the
// pre-overhaul paired linear sweep as the property-tested reference
// oracle.
func (ib *IBR) CanFree(tid int, s *reclaim.Snapshot, blk mem.Handle) bool {
	los, his := s.Intervals()
	return ib.canDelete(blk, los, his, s.Linear())
}

// canDelete reports whether the block's [birth, retire] lifespan overlaps
// none of the gathered reservation intervals; linear selects the paired
// reference sweep (the endpoint slices are sorted independently
// otherwise).
func (ib *IBR) canDelete(blk mem.Handle, los, his []uint64, linear bool) bool {
	birth := ib.arena.AllocEra(blk)
	retire := ib.arena.RetireEra(blk)
	if linear {
		return !intervalReservedLinear(los, his, birth, retire)
	}
	return !reclaim.IntervalsOverlap(los, his, birth, retire)
}

// intervalReservedLinear is the pre-overhaul O(G) per-block overlap sweep
// over paired endpoints, kept as the reference oracle for the sorted
// scan's property test and the -ablation scan comparison.
func intervalReservedLinear(los, his []uint64, birth, retire uint64) bool {
	for i := range los {
		if birth <= his[i] && retire >= los[i] {
			return true
		}
	}
	return false
}

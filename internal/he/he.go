// Package he implements Hazard Eras (Ramalhete & Correia, SPAA 2017), the
// lock-free scheme WFE extends, exactly as reproduced in the paper's
// Figure 1 — including the retire() race fix the paper mentions applying
// (re-reading the global era before deciding to advance it).
//
// Paper mapping: Figure 1 (§2.3) line for line — get_protected's
// stabilisation loop, retire's era stamping, and cleanup's reservation
// scan. The unbounded get_protected loop here is the paper's motivating
// problem; its per-thread worst case is observable through
// Retirer().MaxSteps, and examples/boundedsteps turns the difference into
// a latency table.
//
// The retire side — retire lists, scan cadence, telemetry — lives in the
// shared reclaim.Retirer; this package contributes the era clock, the
// reservation matrix, and its era Judge (Gather the published eras,
// CanFree every block whose [alloc, retire] lifespan none covers).
package he

import (
	"sync/atomic"

	"wfe/internal/mem"
	"wfe/internal/pack"
	"wfe/internal/reclaim"
	"wfe/internal/trace"
)

type threadState struct {
	allocCount uint64
	// dirty is one past the highest reservation index used since the last
	// Clear.
	dirty int
	_     [64]byte
}

// HE is the Hazard Eras scheme.
type HE struct {
	arena     *mem.Arena
	cfg       reclaim.Config
	rt        *reclaim.Retirer
	globalEra atomic.Uint64

	reservations []atomic.Uint64 // row-major [MaxThreads][MaxHEs] eras
	rowStride    int
	threads      []threadState
}

var _ reclaim.Scheme = (*HE)(nil)
var _ reclaim.Judge = (*HE)(nil)
var _ reclaim.PreScanner = (*HE)(nil)

// New creates a Hazard Eras scheme over the given arena.
func New(arena *mem.Arena, cfg reclaim.Config) *HE {
	cfg = cfg.Defaults()
	stride := (cfg.MaxHEs + 7) &^ 7
	h := &HE{
		arena:        arena,
		cfg:          cfg,
		reservations: make([]atomic.Uint64, cfg.MaxThreads*stride),
		rowStride:    stride,
		threads:      make([]threadState, cfg.MaxThreads),
	}
	h.rt = reclaim.NewRetirer(arena, cfg, h)
	h.globalEra.Store(max(1, cfg.InitialEra))
	for i := range h.reservations {
		h.reservations[i].Store(pack.Inf)
	}
	return h
}

// Name implements reclaim.Scheme.
func (h *HE) Name() string { return "HE" }

// Begin implements reclaim.Scheme; Hazard Eras needs no prologue.
func (h *HE) Begin(tid int) {}

// Arena implements reclaim.Scheme.
func (h *HE) Arena() *mem.Arena { return h.arena }

// Retirer implements reclaim.Scheme.
func (h *HE) Retirer() *reclaim.Retirer { return h.rt }

// Era returns the current global era clock value.
func (h *HE) Era() uint64 { return h.globalEra.Load() }

func (h *HE) resv(tid, j int) *atomic.Uint64 {
	return &h.reservations[tid*h.rowStride+j]
}

// GetProtected is the paper's Figure 1 loop: publish the era observed while
// reading until the global era stops moving. Lock-free, not wait-free —
// this is precisely the loop WFE bounds. Each call's iteration count feeds
// the shared step histogram (the unboundedness, observable).
func (h *HE) GetProtected(tid int, src *atomic.Uint64, index int, parent mem.Handle) uint64 {
	t := &h.threads[tid]
	if index >= t.dirty {
		t.dirty = index + 1
	}
	r := h.resv(tid, index)
	prevEra := r.Load()
	for steps := uint64(1); ; steps++ {
		ret := src.Load()
		newEra := h.globalEra.Load()
		if prevEra == newEra {
			h.rt.RecordSteps(tid, steps)
			return ret
		}
		r.Store(newEra)
		prevEra = newEra
	}
}

// Alloc implements the paper's alloc_block. The era cadence ticks even
// when the arena is exhausted, which reports (0, false).
func (h *HE) Alloc(tid int) (mem.Handle, bool) {
	t := &h.threads[tid]
	if t.allocCount%uint64(h.cfg.EraFreq) == 0 {
		h.advanceEra(tid)
	}
	t.allocCount++
	blk, ok := h.arena.Alloc(tid)
	if !ok {
		return 0, false
	}
	h.arena.SetAllocEra(blk, h.globalEra.Load())
	return blk, true
}

// AdvanceClock ticks the global era out of the allocation cadence
// (reclaim.ClockAdvancer) — the emergency-reclamation hook.
func (h *HE) AdvanceClock(tid int) { h.advanceEra(tid) }

// Retire implements the paper's retire: stamp the retire era and hand the
// block to the shared retire-side runtime (PreScan applies the race fix
// right before each gated scan).
func (h *HE) Retire(tid int, blk mem.Handle) {
	h.arena.SetRetireEra(blk, h.globalEra.Load())
	h.rt.Retire(tid, blk)
}

// PreScan implements reclaim.PreScanner — the paper's retire() race fix:
// the era is only advanced if the triggering block's retire era still
// equals the global era.
func (h *HE) PreScan(tid int, blk mem.Handle) {
	if h.arena.RetireEra(blk) == h.globalEra.Load() {
		h.advanceEra(tid)
	}
}

// advanceEra bumps the clock, guarding the 38-bit packing bound.
func (h *HE) advanceEra(tid int) {
	era := h.globalEra.Add(1)
	if era >= pack.MaxEra {
		panic("he: era clock exhausted (2^38 increments); see pack's width accounting")
	}
	h.cfg.Tracer.Emit(tid, trace.KindEraAdvance, era, 0)
}

// Clear implements the paper's clear; only indices used since the previous
// Clear need resetting.
func (h *HE) Clear(tid int) {
	t := &h.threads[tid]
	for j := 0; j < t.dirty; j++ {
		r := h.resv(tid, j)
		if r.Load() != pack.Inf {
			r.Store(pack.Inf)
		}
	}
	t.dirty = 0
}

// Gather implements reclaim.Judge: snapshot the published eras once per
// scan. The snapshot can only keep more blocks than Figure 1's per-block
// re-scan (a reservation cleared mid-scan is still honoured); a
// reservation published after the snapshot cannot protect an
// already-retired block, by the same argument that makes the per-block
// scan sound.
func (h *HE) Gather(tid int, s *reclaim.Snapshot) {
	for i := 0; i < h.cfg.MaxThreads; i++ {
		for j := 0; j < h.cfg.MaxHEs; j++ {
			if era := h.resv(i, j).Load(); era != pack.Inf {
				s.AddEra(era)
			}
		}
	}
}

// CanFree implements reclaim.Judge via canDelete, which retains the
// pre-overhaul linear sweep as the property-tested reference oracle.
func (h *HE) CanFree(tid int, s *reclaim.Snapshot, blk mem.Handle) bool {
	return h.canDelete(blk, s.Eras(), s.Linear())
}

// canDelete reports whether no gathered era lands in the block's
// [alloc, retire] lifespan; linear selects the reference sweep (the eras
// snapshot is sorted otherwise).
func (h *HE) canDelete(blk mem.Handle, eras []uint64, linear bool) bool {
	allocEra := h.arena.AllocEra(blk)
	retireEra := h.arena.RetireEra(blk)
	if linear {
		return !eraReservedLinear(eras, allocEra, retireEra)
	}
	return !reclaim.ReservedInRange(eras, allocEra, retireEra)
}

// eraReservedLinear is the pre-overhaul O(G) membership sweep, kept as
// the reference oracle for the sorted scan's property test and the
// -ablation scan comparison.
func eraReservedLinear(eras []uint64, lo, hi uint64) bool {
	for _, era := range eras {
		if lo <= era && hi >= era {
			return true
		}
	}
	return false
}

// Package core implements Wait-Free Eras (WFE), the paper's contribution:
// a universal memory reclamation scheme in which every operation —
// GetProtected, Retire, Alloc, Clear and the internal cleanup — completes in
// a bounded number of steps (Nikolaev & Ravindran, PPoPP 2020, Figure 4).
//
// WFE runs Hazard Eras on the fast path. When GetProtected fails to observe
// a stable global era within MaxAttempts iterations, the thread publishes a
// helping request (state[tid][index]) and enters the slow path. Threads that
// would advance the global era from Alloc or Retire first help every pending
// request (increment_era → help_thread), bounding the slow-path loop by the
// number of in-flight era increments (paper Lemma 1).
//
// The paper's two 128-bit WCAS targets — the {era, tag} reservation pair and
// the {pointer, era} result pair — are packed into single 64-bit words by
// the pack package; see pack's documentation for the width argument. Where
// the paper's owner thread writes one half of a pair with a plain store, the
// packed representation must write the whole word; each such site is
// annotated with the interleaving argument for why the combined write is
// safe.
//
// The retire side lives in the shared reclaim.Retirer; this package
// contributes the helping machinery and a two-phase Judge that preserves
// the paper's Figure 4 cleanup discipline: the first snapshot gathers
// normal reservations then the first special reservation, the
// counterStart/counterEnd gate decides whether phase-one survivors must be
// re-judged, and the second snapshot gathers the second special
// reservation then the normals again — the Lemma 4/5 read order, intact.
package core

import (
	"sync/atomic"

	"wfe/internal/mem"
	"wfe/internal/pack"
	"wfe/internal/reclaim"
	"wfe/internal/trace"
)

// slowSlot is the paper's state_s: one helping request per reservation.
type slowSlot struct {
	// result is a packed ResPair. Input (request posted): {InvPtr, tag}.
	// Output: {link value, era}. Cancelled: {0, Inf}.
	result atomic.Uint64
	// era is the parent block's allocation era, protecting the parent while
	// helpers dereference pointer (Inf when the source is a structure root).
	era atomic.Uint64
	// pointer is the hazardous location to read on the requester's behalf.
	pointer atomic.Pointer[atomic.Uint64]
	_       [64 - 3*8]byte
}

// threadState is per-thread, owner-written bookkeeping.
type threadState struct {
	allocCount uint64
	// dirty is one past the highest reservation index used since the last
	// Clear, bounding Clear's work to the indices actually touched.
	dirty int
	_     [64]byte
}

// WFE is the Wait-Free Eras scheme.
type WFE struct {
	arena *mem.Arena
	cfg   reclaim.Config
	rt    *reclaim.Retirer

	globalEra    atomic.Uint64
	counterStart atomic.Uint64 // threads that entered the slow path
	counterEnd   atomic.Uint64 // threads that left the slow path

	// reservations is row-major [MaxThreads][MaxHEs+2] of packed EraTag
	// words, rows padded to a cache-line multiple. Slots MaxHEs and
	// MaxHEs+1 are the two special reservations used only by help_thread.
	reservations []atomic.Uint64
	rowStride    int

	state   []slowSlot // row-major [MaxThreads][MaxHEs]
	threads []threadState

	// slowPaths counts slow-path entries; ablation A1 reads it.
	slowPaths atomic.Uint64
}

var _ reclaim.Scheme = (*WFE)(nil)
var _ reclaim.TwoPhase = (*WFE)(nil)
var _ reclaim.PreScanner = (*WFE)(nil)

// New creates a WFE scheme over the given arena.
func New(arena *mem.Arena, cfg reclaim.Config) *WFE {
	cfg = cfg.Defaults()
	n, h := cfg.MaxThreads, cfg.MaxHEs
	stride := (h + 2 + 7) &^ 7 // round the row up to 8 words (a cache line)
	w := &WFE{
		arena:        arena,
		cfg:          cfg,
		reservations: make([]atomic.Uint64, n*stride),
		rowStride:    stride,
		state:        make([]slowSlot, n*h),
		threads:      make([]threadState, n),
	}
	w.rt = reclaim.NewRetirer(arena, cfg, w)
	w.globalEra.Store(max(1, cfg.InitialEra))
	inf := uint64(pack.MakeEraTag(pack.Inf, 0))
	for i := range w.reservations {
		w.reservations[i].Store(inf)
	}
	for i := range w.state {
		w.state[i].result.Store(uint64(pack.MakeRes(0, pack.Inf)))
		w.state[i].era.Store(pack.Inf)
	}
	return w
}

// Name implements reclaim.Scheme.
func (w *WFE) Name() string { return "WFE" }

// Begin implements reclaim.Scheme; WFE needs no per-operation prologue.
func (w *WFE) Begin(tid int) {}

// Arena implements reclaim.Scheme.
func (w *WFE) Arena() *mem.Arena { return w.arena }

// Retirer implements reclaim.Scheme.
func (w *WFE) Retirer() *reclaim.Retirer { return w.rt }

// Era returns the current global era clock value.
func (w *WFE) Era() uint64 { return w.globalEra.Load() }

// SlowPaths returns how many GetProtected calls entered the slow path.
func (w *WFE) SlowPaths() uint64 { return w.slowPaths.Load() }

func (w *WFE) resv(tid, j int) *atomic.Uint64 {
	return &w.reservations[tid*w.rowStride+j]
}

func (w *WFE) slot(tid, j int) *slowSlot {
	return &w.state[tid*w.cfg.MaxHEs+j]
}

// GetProtected implements the paper's get_protected (Figure 4, lines 12-55).
func (w *WFE) GetProtected(tid int, src *atomic.Uint64, index int, parent mem.Handle) uint64 {
	if t := &w.threads[tid]; index >= t.dirty {
		t.dirty = index + 1
	}
	r := w.resv(tid, index)
	cur := pack.EraTag(r.Load())
	prevEra, tag := cur.Era(), cur.Tag()

	if !w.cfg.ForceSlowPath {
		for a := 0; a < w.cfg.MaxAttempts; a++ { // fast path
			ret := src.Load()
			newEra := w.globalEra.Load()
			if prevEra == newEra {
				w.rt.RecordSteps(tid, uint64(a)+1)
				return ret
			}
			// Owner-only full-word store. A helper CAS on this word requires
			// a pending request with the current tag; no request is pending
			// on the fast path, so the combined {era, tag} store cannot
			// clobber a helper's update.
			r.Store(uint64(pack.MakeEraTag(newEra, tag)))
			prevEra = newEra
		}
	}
	return w.getProtectedSlow(tid, src, index, parent, prevEra, tag)
}

func (w *WFE) getProtectedSlow(tid int, src *atomic.Uint64, index int, parent mem.Handle, prevEra, tag uint64) uint64 {
	w.slowPaths.Add(1)

	// Fetch the parent's era so helpers can protect the block holding src.
	allocEra := uint64(pack.Inf)
	if parent != 0 {
		allocEra = w.arena.AllocEra(parent)
	}

	// Publish the helping request.
	w.counterStart.Add(1)
	st := w.slot(tid, index)
	st.pointer.Store(src)
	st.era.Store(allocEra)
	pending := uint64(pack.MakeRes(pack.InvPtr, tag))
	st.result.Store(pending)

	r := w.resv(tid, index)
	steps := uint64(w.cfg.MaxAttempts)
	defer func() { w.rt.RecordSteps(tid, steps) }()
	for { // bounded by the number of in-flight era increments (Lemma 1)
		steps++
		ret := src.Load()
		newEra := w.globalEra.Load()
		if prevEra == newEra &&
			st.result.CompareAndSwap(pending, uint64(pack.MakeRes(0, pack.Inf))) {
			// Self-completion: the request was cancelled before any helper
			// produced output, so no helper will CAS this reservation for
			// this tag; the combined store advancing the tag is safe. The
			// era field keeps prevEra, which protects ret.
			r.Store(uint64(pack.MakeEraTag(prevEra, tag+1)))
			w.counterEnd.Add(1)
			return ret
		}
		// Keep the published reservation's era current; failures mean a
		// helper already updated it, which is fine (paper line 44).
		r.CompareAndSwap(uint64(pack.MakeEraTag(prevEra, tag)), uint64(pack.MakeEraTag(newEra, tag)))
		prevEra = newEra

		res := pack.ResPair(st.result.Load())
		if !res.Pending() {
			// A helper produced the output: adopt its era. The helper's own
			// reservation CAS (if it won) wrote the same {era, tag+1} pair,
			// so this combined store writes an identical value at worst.
			w.resv(tid, index).Store(uint64(pack.MakeEraTag(res.Val(), tag+1)))
			w.counterEnd.Add(1)
			return res.Ptr()
		}
	}
}

// incrementEra helps every pending slow-path request before advancing the
// global era (paper lines 87-99); this is what makes the slow path bounded.
func (w *WFE) incrementEra(tid int) {
	ce := w.counterEnd.Load()
	cs := w.counterStart.Load()
	if cs != ce {
		for i := 0; i < w.cfg.MaxThreads; i++ {
			for j := 0; j < w.cfg.MaxHEs; j++ {
				if pack.ResPair(w.slot(i, j).result.Load()).Pending() {
					w.helpThread(i, j, tid)
				}
			}
		}
	}
	era := w.globalEra.Add(1)
	if era >= pack.MaxEra {
		panic("wfe: era clock exhausted (2^38 increments); see pack's width accounting")
	}
	w.cfg.Tracer.Emit(tid, trace.KindEraAdvance, era, 0)
}

// helpThread completes thread i's request at reservation j on its behalf
// (paper lines 101-134).
func (w *WFE) helpThread(i, j, tid int) {
	st := w.slot(i, j)
	res := pack.ResPair(st.result.Load())
	if !res.Pending() {
		return
	}
	era := st.era.Load()
	// Special reservation 1 protects the parent block while we read from it.
	w.resv(tid, w.cfg.MaxHEs).Store(uint64(pack.MakeEraTag(era, 0)))

	ptr := st.pointer.Load()
	tag := pack.EraTag(w.resv(i, j).Load()).Tag()
	if tag == res.Val() && ptr != nil {
		// All state fields were read consistently: the request is still in
		// the slow-path cycle identified by tag.
		prevEra := w.globalEra.Load()
		for { // bounded by in-flight era increments (Lemma 2)
			// Special reservation 2 protects the block the hazardous entry
			// refers to while the reservation is handed over.
			w.resv(tid, w.cfg.MaxHEs+1).Store(uint64(pack.MakeEraTag(prevEra, 0)))
			ret := ptr.Load() & pack.PtrMask
			newEra := w.globalEra.Load()
			if prevEra == newEra {
				if st.result.CompareAndSwap(uint64(res), uint64(pack.MakeRes(ret, newEra))) {
					for { // at most 2 iterations (Lemma 3)
						old := pack.EraTag(w.resv(i, j).Load())
						if old.Tag() != tag {
							break
						}
						if w.resv(i, j).CompareAndSwap(uint64(old), uint64(pack.MakeEraTag(newEra, tag+1))) {
							break
						}
					}
				}
				break
			}
			prevEra = newEra
			if pack.ResPair(st.result.Load()) != res {
				break
			}
		}
		w.resv(tid, w.cfg.MaxHEs+1).Store(uint64(pack.MakeEraTag(pack.Inf, 0)))
	}
	w.resv(tid, w.cfg.MaxHEs).Store(uint64(pack.MakeEraTag(pack.Inf, 0)))
}

// Alloc implements the paper's alloc_block (Figure 4, lines 69-75). The
// era cadence ticks even when the arena is exhausted, which reports
// (0, false).
func (w *WFE) Alloc(tid int) (mem.Handle, bool) {
	t := &w.threads[tid]
	if t.allocCount%uint64(w.cfg.EraFreq) == 0 {
		w.incrementEra(tid)
	}
	t.allocCount++
	h, ok := w.arena.Alloc(tid)
	if !ok {
		return 0, false
	}
	w.arena.SetAllocEra(h, w.globalEra.Load())
	return h, true
}

// AdvanceClock ticks the global era out of the allocation cadence
// (reclaim.ClockAdvancer) — the emergency-reclamation hook, routed
// through incrementEra so pending slow-path requests get helped first.
func (w *WFE) AdvanceClock(tid int) { w.incrementEra(tid) }

// Retire implements the paper's retire (Figure 4, lines 77-85): stamp the
// retire era and hand the block to the shared retire-side runtime, whose
// gated scan runs PreScan first.
func (w *WFE) Retire(tid int, h mem.Handle) {
	w.arena.SetRetireEra(h, w.globalEra.Load())
	w.rt.Retire(tid, h)
}

// PreScan implements reclaim.PreScanner — the paper's pre-cleanup era
// advance, taken only if the triggering block's retire era still equals
// the global era, and routed through incrementEra so pending slow-path
// requests get helped first.
func (w *WFE) PreScan(tid int, h mem.Handle) {
	if w.arena.RetireEra(h) == w.globalEra.Load() {
		w.incrementEra(tid)
	}
}

// Clear implements the paper's clear: all reservations back to ∞, tags
// preserved so stale helpers from completed cycles keep failing their CAS.
// Only indices used since the previous Clear need resetting.
func (w *WFE) Clear(tid int) {
	t := &w.threads[tid]
	for j := 0; j < t.dirty; j++ {
		r := w.resv(tid, j)
		cur := pack.EraTag(r.Load())
		if cur.Era() != pack.Inf {
			r.Store(uint64(cur.WithEra(pack.Inf)))
		}
	}
	t.dirty = 0
}

// The cleanup scan follows the paper's two-phase discipline (Figure 4,
// lines 57-67) through the runtime's TwoPhase protocol. Instead of
// re-reading the reservation matrix for every block, each reservation
// class is gathered once per scan, in the order the Lemma 4/5 proofs
// require — normal reservations, then the first special reservation, then
// (for survivors of the first test) the second special reservation
// followed by the normals again. A gathered snapshot can only
// over-approximate the per-block scan (a reservation cleared mid-scan is
// still honoured), the counter gate is taken across the whole scan
// (strictly more conservative than per block), and the tag check in
// help_thread rules out the one helper window the snapshots could miss,
// exactly as in the per-block formulation.

// Gather implements reclaim.Judge: the first phase's snapshot — normal
// reservations first, then special reservation 1 — bracketed by the
// counterEnd/counterStart reads whose disagreement forces the second
// phase (stashed as the snapshot's aux flag for NeedSecond).
func (w *WFE) Gather(tid int, s *reclaim.Snapshot) {
	h := w.cfg.MaxHEs
	ce := w.counterEnd.Load()
	w.gather(s, 0, h)   // normal reservations first,
	w.gather(s, h, h+1) // then special reservation 1
	if w.counterStart.Load() != ce {
		s.SetAux(0, 1) // helping in flight: survivors need phase two
	}
}

// NeedSecond implements reclaim.TwoPhase: a slow path was in flight across
// the first gather, so blocks it cleared are only provisionally free.
func (w *WFE) NeedSecond(tid int, s *reclaim.Snapshot) bool {
	return s.Aux(0) != 0
}

// GatherSecond implements reclaim.TwoPhase: the second phase's snapshot —
// special reservation 2 first, then the normals again.
func (w *WFE) GatherSecond(tid int, s *reclaim.Snapshot) {
	h := w.cfg.MaxHEs
	w.gather(s, h+1, h+2) // special reservation 2 first,
	w.gather(s, 0, h)     // then the normals again
}

// CanFree implements reclaim.Judge for both phases via reserved, which
// retains the pre-overhaul linear sweep as the property-tested reference
// oracle.
func (w *WFE) CanFree(tid int, s *reclaim.Snapshot, blk mem.Handle) bool {
	return !w.reserved(blk, s.Eras(), s.Linear())
}

// reserved reports whether any snapshot era falls within the block's
// lifespan — by the pre-overhaul linear sweep when linear is set, by
// binary search on the phase's sorted snapshot otherwise.
func (w *WFE) reserved(blk mem.Handle, snap []uint64, linear bool) bool {
	lo, hi := w.arena.AllocEra(blk), w.arena.RetireEra(blk)
	if linear {
		return overlapsLinear(snap, lo, hi)
	}
	return reclaim.ReservedInRange(snap, lo, hi)
}

// gather appends the non-∞ eras of reservation indices [js, je) across all
// threads to the snapshot.
func (w *WFE) gather(s *reclaim.Snapshot, js, je int) {
	for i := 0; i < w.cfg.MaxThreads; i++ {
		for j := js; j < je; j++ {
			if era := pack.EraTag(w.resv(i, j).Load()).Era(); era != pack.Inf {
				s.AddEra(era)
			}
		}
	}
}

// overlapsLinear is the pre-overhaul O(G) membership sweep — any gathered
// era within [lo, hi] — kept as the reference oracle for the sorted
// scan's property test and the -ablation scan comparison.
func overlapsLinear(eras []uint64, lo, hi uint64) bool {
	for _, era := range eras {
		if lo <= era && hi >= era {
			return true
		}
	}
	return false
}

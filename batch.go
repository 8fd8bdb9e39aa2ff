package wfe

import "wfe/internal/trace"

// Batching: one entry point, Guard.Batch, plus its guardless twin
// Domain.Batch. A batch is the paper's operation shape stretched over
// many operations — one Begin…Clear span — with the caller running any
// per-op Guarded calls inside it and keeping their results itself.
//
// A per-op Guarded call pays three amortizable costs every time: a lease
// claim (guardless paths), a protection span (Begin/End), and a step of
// the retire cadence. A batch pays each once:
//
//   - one lease: Domain.Batch pins once via pinBatch and runs the whole
//     closure under that guard;
//   - one protection span on every scheme: the batch runs the scheme's
//     Begin when it opens and its Clear when it closes, and the items'
//     own Begin/End leave the span alone — on a Guard and inside the
//     wait-free queues' protocols alike, because the batching flag lives
//     on the tid's record. Reservations from earlier items stay published
//     until the batch ends, which only keeps blocks alive longer — one
//     span is indistinguishable from one long operation (see
//     reclaim.Scheme.Clear, including the hazard-pointer case);
//   - one retire cadence step: the items retire through the scheme as
//     usual, stamped at unlink, but inside the Retirer's burst bracket
//     the scan cadence waits for the burst to end and then steps once —
//     the cleanup cadence counts bursts, not items, so a 128-item burst
//     cannot trigger 4 mid-burst scans under the default CleanupFreq.
//
// One rule carries over from the per-op path, batch-wide: allocate before
// protecting. A stalled allocation inside a batch ends the burst, clears
// the span, runs the emergency pipeline unprotected and reopens both (see
// allocSlow), so it never pins the blocks its own rescue needs. Partial
// progress is the caller's loop: stop at the first ErrArenaExhausted and
// the items before it stay applied.
//
// The batch state lives on the tid's record and is strictly owner-
// goroutine state, like the protection slots themselves: a Guard is
// single-threaded by contract, so none of it is atomic.

// Batch runs fn as one batch on g: one protection span and one retire
// burst cover every Guarded call fn makes with g, so the span and the
// scan cadence are paid once, not per operation. Each call is still the
// same linearizable operation it is outside a batch; fn keeps their
// results. Batches do not nest, and fn must not Release or Unpin g.
//
// Inside fn, allocate before protecting: an allocation that stalls on an
// exhausted arena drops the batch's protections while the emergency
// pipeline runs (see TryAlloc). The built-in structures follow this rule.
func (g *Guard[T]) Batch(fn func()) {
	bump(&g.d.stats[g.tid].batchOps, 1)
	g.beginBatch()
	defer g.endBatch()
	fn()
}

// Batch is Guard.Batch on a leased guard: it pins one guard for the whole
// batch — recorded on Telemetry's BatchGuardCacheHits/Misses — runs fn
// with it, and returns it to the lease cache.
func (d *Domain[T]) Batch(fn func(g *Guard[T])) {
	g := d.pinBatch()
	defer d.unpin(g)
	g.beginBatch()
	defer g.endBatch()
	fn(g)
}

// beginBatch opens the batch span on g's tid. While it is open,
// Guard.Begin/End and liveScheme.Begin/Clear only count items, so the
// per-op bodies run unchanged inside it.
func (g *Guard[T]) beginBatch() {
	s := &g.d.stats[g.tid]
	if s.batching {
		panic("wfe: nested Batch on one guard")
	}
	s.batching, s.items, s.retired = true, 0, 0
	sch := g.d.scheme().s
	sch.Begin(g.tid)
	sch.Retirer().BeginBurst(g.tid)
	g.d.tracer.Emit(g.tid, trace.KindBatchBegin, 0, 0)
}

// endBatch closes the batch: end the retire burst (one cadence step),
// drop the span, and account the batch. The burst ends before the span
// closes, mirroring the per-op order (Retire, then End). It runs from a
// defer, so a panicking item cannot strand the tid with batching set.
func (g *Guard[T]) endBatch() {
	s := &g.d.stats[g.tid]
	sch := g.d.scheme().s
	retired := s.retired + uint64(sch.Retirer().EndBurst(g.tid))
	sch.Clear(g.tid)
	s.batching = false
	bump(&s.batchItems, s.items)
	g.d.tracer.Emit(g.tid, trace.KindBatchEnd, s.items, retired)
}

package wfe

import "wfe/internal/trace"

// Batch context: the machinery behind the Multi*/PushAll/PopN/EnqueueAll/
// DequeueN entry points on the public structures.
//
// A per-op Guarded call pays three amortizable costs every time: a lease
// claim (guardless paths), a protection span (Begin/End), and a step of
// the retire cadence. A batch pays each once per burst instead:
//
//   - one lease: the guardless batch wrappers pin once via pinBatch and
//     run every item under that guard;
//   - one protection span on every scheme: beginBatch runs the scheme's
//     Begin and endBatch its Clear, and the items' own Begin/End leave
//     the span alone. Reservations from earlier items stay published
//     until the batch ends, which only keeps blocks alive longer — one
//     span is indistinguishable from one long operation (see
//     reclaim.Scheme.Clear, including the hazard-pointer case);
//   - one retire cadence step: the items retire through the scheme as
//     usual, stamped at unlink, but inside the Retirer's burst bracket
//     the scan cadence waits for the burst to end and then steps once —
//     the cleanup cadence counts bursts, not items, so a 128-item burst
//     cannot trigger 4 mid-burst scans under the default CleanupFreq.
//
// The context lives on the Guard and is strictly owner-goroutine state,
// like the protection slots themselves: a Guard is single-threaded by
// contract, so none of these fields are atomic.

// beginBatch opens the batch context on g. intended is the item count the
// caller plans to run (0 when open-ended, e.g. PopN draining early); it
// only labels the trace span. Callers must pair it with endBatch, usually
// via defer, so a panicking item cannot strand the guard with batching
// set and the burst open. While the context is open, Guard.Begin and
// Guard.End do nothing, so the per-op Guarded method bodies run
// unchanged inside a batch.
func (g *Guard[T]) beginBatch(intended int) {
	if g.batching {
		panic("wfe: nested batch operation on one guard")
	}
	g.batching = true
	sch := g.d.scheme().s
	sch.Begin(g.tid)
	sch.Retirer().BeginBurst(g.tid)
	g.d.tracer.Emit(g.tid, trace.KindBatchBegin, uint64(intended), 0)
}

// endBatch closes the batch context: end the retire burst (one cadence
// step), drop the batch-wide span, and account the batch. The burst ends
// before the span closes, mirroring the per-op order (Retire, then End).
// items is the number of operations the batch actually ran.
func (g *Guard[T]) endBatch(items int) {
	sch := g.d.scheme().s
	retired := sch.Retirer().EndBurst(g.tid)
	sch.Clear(g.tid)
	g.batching = false
	g.noteBatch(items)
	g.d.tracer.Emit(g.tid, trace.KindBatchEnd, uint64(items), uint64(retired))
}

// runBatch runs fn(i) for each i in [0, n) inside one batch context and
// returns how many items completed. fn is expected to call a per-op
// Guarded method, whose Begin/End leave the batch-wide span alone. fn
// reports whether its item did any work; the first false
// stops the batch early without counting it (PopN on an emptied stack,
// DequeueN on a drained queue). It is the shared skeleton for the batch
// APIs whose per-item work cannot fail on allocation.
func (g *Guard[T]) runBatch(n int, fn func(i int) bool) int {
	if n == 1 {
		// A batch of one has nothing to amortize: the span, the burst
		// and the trace bracket would be pure overhead on top of per-op
		// cost. Run the item as the equivalent per-op call — with
		// batching unset, its Begin/End/Retire take the normal per-op
		// paths — and keep only the batch accounting.
		done := 0
		if fn(0) {
			done = 1
		}
		g.noteBatch(done)
		return done
	}
	g.beginBatch(n)
	done := 0
	defer func() { g.endBatch(done) }()
	for i := 0; i < n; i++ {
		if !fn(i) {
			break
		}
		done++
	}
	return done
}

// runLeaseBatch is runBatch without the scheme-level batch context: one
// lease, per-op protection. The wait-free queues need it — their helping
// protocols drive the scheme's Begin/Clear per operation from inside
// internal/ds, so opening a batch-wide span around them would be cleared
// mid-batch by the first internal operation. Batching there amortizes
// the lease and the telemetry, and the trace span still brackets the
// burst.
func (g *Guard[T]) runLeaseBatch(n int, fn func(i int) bool) int {
	g.d.tracer.Emit(g.tid, trace.KindBatchBegin, uint64(n), 0)
	done := 0
	defer func() {
		g.noteBatch(done)
		g.d.tracer.Emit(g.tid, trace.KindBatchEnd, uint64(done), 0)
	}()
	for i := 0; i < n; i++ {
		if !fn(i) {
			break
		}
		done++
	}
	return done
}

// Batched-operation conformance: batches — Guard.Batch and Domain.Batch
// around each structure's per-op Guarded calls, plus the HashMap's
// TryMultiPut/MultiDelete/MultiGet loops over Domain.Batch — run through
// the same structure × scheme × acquisition-path matrix as the per-op
// conformance harness, under the same invariants (exactly-once delivery
// for the sequences, membership against an exact oracle for the kv
// structures), plus the batch-only contracts: positional results,
// partial progress on arena exhaustion, the in-span allocation stall,
// batch telemetry and the trace bracket. CI runs this file under -race.
package wfe_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"wfe"
	"wfe/internal/quiesce"
)

// inBatch runs body as one batch on the matrix's guard: a nil guard
// selects the guardless Domain.Batch, a non-nil one Guard.Batch on it.
func inBatch(d *wfe.Domain[uint64], g *wfe.Guard[uint64], body func(g *wfe.Guard[uint64])) {
	if g == nil {
		d.Batch(body)
		return
	}
	g.Batch(func() { body(g) })
}

// batchAPI adapts one structure's per-op Guarded calls, run as batches,
// to the matrix. Sequences implement insertAll/removeN; kv structures
// putAll/deleteAll/getOne. Every method takes the matrix's guard (nil
// for guardless) and runs its whole slice as one batch.
type batchAPI interface {
	kind() conformKind
	// insertAll pushes/enqueues vs in slice order (sequences only).
	insertAll(g *wfe.Guard[uint64], vs []uint64)
	// removeN pops/dequeues up to n values, stopping when empty
	// (sequences only).
	removeN(g *wfe.Guard[uint64], n int) []uint64
	// putAll upserts ks[i]→vs[i]; for the Tree it inserts, so repeated
	// keys keep their first value.
	putAll(g *wfe.Guard[uint64], ks, vs []uint64)
	// deleteAll removes every key, reporting per-key presence.
	deleteAll(g *wfe.Guard[uint64], ks []uint64) []bool
	// getOne reads one key in a batch of its own.
	getOne(g *wfe.Guard[uint64], k uint64) (uint64, bool)
	length(g *wfe.Guard[uint64]) int
}

// seqOps is the per-op method set the sequence adapter batches: Stack,
// Queue, WFQueue and TurnQueue all have it under their own names.
type seqOps struct {
	d      *wfe.Domain[uint64]
	k      conformKind
	insert func(g *wfe.Guard[uint64], v uint64)
	remove func(g *wfe.Guard[uint64]) (uint64, bool)
	len    func(g *wfe.Guard[uint64]) int
}

func (a seqOps) kind() conformKind { return a.k }
func (a seqOps) insertAll(g *wfe.Guard[uint64], vs []uint64) {
	inBatch(a.d, g, func(g *wfe.Guard[uint64]) {
		for _, v := range vs {
			a.insert(g, v)
		}
	})
}
func (a seqOps) removeN(g *wfe.Guard[uint64], n int) []uint64 {
	var out []uint64
	inBatch(a.d, g, func(g *wfe.Guard[uint64]) {
		for len(out) < n {
			v, ok := a.remove(g)
			if !ok {
				return
			}
			out = append(out, v)
		}
	})
	return out
}
func (a seqOps) putAll(*wfe.Guard[uint64], []uint64, []uint64) { panic("sequence: no putAll") }
func (a seqOps) deleteAll(*wfe.Guard[uint64], []uint64) []bool { panic("sequence: no deleteAll") }
func (a seqOps) getOne(*wfe.Guard[uint64], uint64) (uint64, bool) {
	panic("sequence: no getOne")
}
func (a seqOps) length(g *wfe.Guard[uint64]) int { return lengthOn(a.d, g, a.len) }

// lengthOn runs a LenGuarded on the matrix's guard, pinning one when the
// path is guardless.
func lengthOn(d *wfe.Domain[uint64], g *wfe.Guard[uint64], lenG func(*wfe.Guard[uint64]) int) int {
	if g == nil {
		g = d.Pin()
		defer d.Unpin(g)
	}
	return lenG(g)
}

// fifoOps is the per-op method set of the three FIFO queues.
type fifoOps interface {
	EnqueueGuarded(g *wfe.Guard[uint64], v uint64)
	DequeueGuarded(g *wfe.Guard[uint64]) (uint64, bool)
	LenGuarded(g *wfe.Guard[uint64]) int
}

func fifoBatchAPI(d *wfe.Domain[uint64], q fifoOps) batchAPI {
	return seqOps{d, fifoKind, q.EnqueueGuarded, q.DequeueGuarded, q.LenGuarded}
}

// kvOps batches the kv structures' per-op calls. Guardless, the HashMap
// goes through its TryMultiPut/MultiDelete/MultiGet loops, so those stay
// in the matrix too.
type kvOps struct {
	d   *wfe.Domain[uint64]
	m   *wfe.HashMap[uint64] // nil for the Tree
	put func(g *wfe.Guard[uint64], k, v uint64)
	del func(g *wfe.Guard[uint64], k uint64) bool
	get func(g *wfe.Guard[uint64], k uint64) (uint64, bool)
	len func(g *wfe.Guard[uint64]) int
}

func (a kvOps) kind() conformKind                      { return kvKind }
func (a kvOps) insertAll(*wfe.Guard[uint64], []uint64) { panic("kv: no insertAll") }
func (a kvOps) removeN(*wfe.Guard[uint64], int) []uint64 {
	panic("kv: no removeN")
}
func (a kvOps) putAll(g *wfe.Guard[uint64], ks, vs []uint64) {
	if g == nil && a.m != nil {
		if _, err := a.m.TryMultiPut(ks, vs); err != nil {
			panic(err)
		}
		return
	}
	inBatch(a.d, g, func(g *wfe.Guard[uint64]) {
		for i, k := range ks {
			a.put(g, k, vs[i])
		}
	})
}
func (a kvOps) deleteAll(g *wfe.Guard[uint64], ks []uint64) []bool {
	if g == nil && a.m != nil {
		return a.m.MultiDelete(ks)
	}
	oks := make([]bool, len(ks))
	inBatch(a.d, g, func(g *wfe.Guard[uint64]) {
		for i, k := range ks {
			oks[i] = a.del(g, k)
		}
	})
	return oks
}
func (a kvOps) getOne(g *wfe.Guard[uint64], k uint64) (v uint64, ok bool) {
	if g == nil && a.m != nil {
		vals, oks := a.m.MultiGet([]uint64{k})
		return vals[0], oks[0]
	}
	inBatch(a.d, g, func(g *wfe.Guard[uint64]) { v, ok = a.get(g, k) })
	return v, ok
}
func (a kvOps) length(g *wfe.Guard[uint64]) int { return lengthOn(a.d, g, a.len) }

func hashMapBatchAPI(d *wfe.Domain[uint64]) batchAPI {
	m := wfe.NewHashMap[uint64](d, 64)
	return kvOps{d, m, m.PutGuarded, m.DeleteGuarded, m.GetGuarded, m.LenGuarded}
}

func treeBatchAPI(d *wfe.Domain[uint64]) batchAPI {
	t := wfe.NewTree[uint64](d)
	insert := func(g *wfe.Guard[uint64], k, v uint64) { t.InsertGuarded(g, k, v) }
	return kvOps{d, nil, insert, t.DeleteGuarded, t.GetGuarded, t.LenGuarded}
}

var batchStructures = []struct {
	name  string
	build func(d *wfe.Domain[uint64]) batchAPI
}{
	{"Stack", func(d *wfe.Domain[uint64]) batchAPI {
		s := wfe.NewStack[uint64](d)
		return seqOps{d, lifoKind, s.PushGuarded, s.PopGuarded, s.LenGuarded}
	}},
	{"Queue", func(d *wfe.Domain[uint64]) batchAPI { return fifoBatchAPI(d, wfe.NewQueue[uint64](d)) }},
	{"WFQueue", func(d *wfe.Domain[uint64]) batchAPI { return fifoBatchAPI(d, wfe.NewWFQueue[uint64](d)) }},
	{"TurnQueue", func(d *wfe.Domain[uint64]) batchAPI { return fifoBatchAPI(d, wfe.NewTurnQueue[uint64](d)) }},
	{"HashMap", hashMapBatchAPI},
	{"Tree", treeBatchAPI},
}

// batchPaths mirrors acquisitionPaths for burst-granular work: how a
// worker holds its guard across a run of bursts.
var batchPaths = []struct {
	name string
	run  func(d *wfe.Domain[uint64], bursts int, body func(b int, g *wfe.Guard[uint64]))
}{
	{"guardless", func(d *wfe.Domain[uint64], bursts int, body func(int, *wfe.Guard[uint64])) {
		for b := 0; b < bursts; b++ {
			body(b, nil)
		}
	}},
	{"pinned", func(d *wfe.Domain[uint64], bursts int, body func(int, *wfe.Guard[uint64])) {
		g := d.Pin()
		defer d.Unpin(g)
		for b := 0; b < bursts; b++ {
			body(b, g)
		}
	}},
	{"acquire-per-op", func(d *wfe.Domain[uint64], bursts int, body func(int, *wfe.Guard[uint64])) {
		for b := 0; b < bursts; b++ {
			g, err := d.AcquireGuard(context.Background())
			if err != nil {
				panic(err)
			}
			body(b, g)
			g.Release()
		}
	}},
}

// TestBatchConformance runs the batch APIs through the full structure ×
// scheme × acquisition-path matrix.
func TestBatchConformance(t *testing.T) {
	for _, st := range batchStructures {
		t.Run(st.name, func(t *testing.T) {
			forEachScheme(t, func(t *testing.T, kind wfe.SchemeKind, forceSlow bool) {
				if testing.Short() && forceSlow {
					t.Skip("forced-slow variants are full-mode only")
				}
				capacity := 1 << 16
				if kind == wfe.Leak {
					capacity = 1 << 19 // Leak never recycles churn
				}
				d := testDomain(t, kind, conformGuards, capacity, forceSlow)
				api := st.build(d)

				batchModelPhase(t, d, api)
				for _, path := range batchPaths {
					if testing.Short() && path.name != "guardless" {
						continue
					}
					t.Run(path.name, func(t *testing.T) {
						switch api.kind() {
						case lifoKind, fifoKind:
							batchSequencePhase(t, d, api, path.run)
						case kvKind:
							batchKVPhase(t, d, api, path.run)
						}
					})
				}
				batchDrainPhase(t, d, api, kind)
			})
		})
	}
}

// batchModelPhase pins the sequential batch semantics: slice-order
// insertion, positional results, early stop on empty, width-0 and
// width-1 edge cases.
func batchModelPhase(t *testing.T, d *wfe.Domain[uint64], api batchAPI) {
	t.Helper()
	g := d.Guard()
	defer g.Release()

	switch api.kind() {
	case lifoKind, fifoKind:
		if got := api.removeN(g, 4); len(got) != 0 {
			t.Fatalf("removeN on empty = %v, want []", got)
		}
		vs := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
		api.insertAll(g, vs)
		api.insertAll(g, nil) // empty batch: a no-op, not a panic
		if n := api.length(g); n != 10 {
			t.Fatalf("Len after insertAll = %d, want 10", n)
		}
		got := api.removeN(g, 4)
		want := []uint64{1, 2, 3, 4} // FIFO
		if api.kind() == lifoKind {
			want = []uint64{10, 9, 8, 7} // LIFO: top first
		}
		if len(got) != 4 {
			t.Fatalf("removeN(4) = %v", got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("removeN(4) = %v, want %v", got, want)
			}
		}
		rest := api.removeN(g, 100) // over-ask drains and stops early
		if len(rest) != 6 {
			t.Fatalf("removeN(100) returned %d values, want the remaining 6", len(rest))
		}
		if n := api.length(g); n != 0 {
			t.Fatalf("Len after drain = %d, want 0", n)
		}
	case kvKind:
		ks := []uint64{3, 1, 4, 1, 5} // key 1 repeats within the batch
		vs := []uint64{30, 10, 40, 11, 50}
		api.putAll(g, ks, vs)
		for _, k := range []uint64{3, 4, 5} {
			if _, ok := api.getOne(g, k); !ok {
				t.Fatalf("key %d missing after putAll", k)
			}
		}
		if v, ok := api.getOne(g, 1); !ok || (v != 10 && v != 11) {
			t.Fatalf("repeated key 1 = %d,%v after putAll", v, ok)
		}
		oks := api.deleteAll(g, []uint64{3, 99, 1, 1})
		wantOks := []bool{true, false, true, false} // second delete of 1 misses
		for i := range wantOks {
			if oks[i] != wantOks[i] {
				t.Fatalf("deleteAll oks = %v, want %v", oks, wantOks)
			}
		}
		api.deleteAll(g, []uint64{4, 5})
		if n := api.length(g); n != 0 {
			t.Fatalf("Len after deletes = %d, want 0", n)
		}
	}
}

// batchSequencePhase checks exactly-once delivery under concurrent push
// and pop (enqueue and dequeue) batches: every value inserted by any
// burst is removed exactly once across all bursts plus the final drain.
func batchSequencePhase(t *testing.T, d *wfe.Domain[uint64], api batchAPI,
	run func(d *wfe.Domain[uint64], bursts int, body func(int, *wfe.Guard[uint64]))) {
	t.Helper()
	const workers, bursts, width = 4, 50, 8
	var produced, consumed [workers]uint64
	var inserted, removed [workers]uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			vs := make([]uint64, width)
			run(d, bursts, func(b int, g *wfe.Guard[uint64]) {
				for j := range vs {
					v := uint64(w*bursts*width+b*width+j) + 1
					vs[j] = v
					produced[w] += v
				}
				api.insertAll(g, vs)
				inserted[w] += width
				for _, v := range api.removeN(g, width/2) {
					consumed[w] += v
					removed[w]++
				}
			})
		}(w)
	}
	wg.Wait()

	g := d.Guard()
	defer g.Release()
	var prodSum, consSum, nIns, nRem uint64
	for w := 0; w < workers; w++ {
		prodSum += produced[w]
		consSum += consumed[w]
		nIns += inserted[w]
		nRem += removed[w]
	}
	for {
		got := api.removeN(g, 64)
		if len(got) == 0 {
			break
		}
		for _, v := range got {
			consSum += v
			nRem++
		}
	}
	if nRem != nIns || prodSum != consSum {
		t.Fatalf("lost or duplicated values: removed %d/%d, checksums %d vs %d",
			nRem, nIns, consSum, prodSum)
	}
}

// batchKVPhase checks batch writes against an exact per-worker oracle:
// workers own disjoint key stripes, so each worker's model map predicts
// its own reads precisely while the domain-level machinery (spans,
// deferred retires, scan cadence) is shared and contended.
func batchKVPhase(t *testing.T, d *wfe.Domain[uint64], api batchAPI,
	run func(d *wfe.Domain[uint64], bursts int, body func(int, *wfe.Guard[uint64]))) {
	t.Helper()
	const workers, bursts, width, stripe = 4, 50, 8, 16
	var wg sync.WaitGroup
	werrs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 7))
			model := make(map[uint64]uint64)
			base := uint64(w * stripe)
			ks := make([]uint64, width)
			vs := make([]uint64, width)
			run(d, bursts, func(b int, g *wfe.Guard[uint64]) {
				if werrs[w] != nil {
					return // the model is unreliable after a divergence
				}
				for j := range ks {
					ks[j] = base + uint64(rng.Intn(stripe))
					vs[j] = uint64(b*width+j) + 1
				}
				if rng.Intn(2) == 0 {
					api.putAll(g, ks, vs)
					// The HashMap upserts, the Tree keeps the first value;
					// track membership only, which both guarantee.
					for j := range ks {
						if _, dup := model[ks[j]]; !dup {
							model[ks[j]] = vs[j]
						}
					}
				} else {
					oks := api.deleteAll(g, ks)
					for j := range ks {
						_, want := model[ks[j]]
						// A key repeated in one delete batch is present
						// only for its first occurrence.
						for jj := 0; jj < j; jj++ {
							if ks[jj] == ks[j] {
								want = false
							}
						}
						if oks[j] != want {
							werrs[w] = fmt.Errorf("worker %d burst %d: delete(%d) = %v, model says %v",
								w, b, ks[j], oks[j], want)
							return
						}
						delete(model, ks[j])
					}
				}
				// Spot-check membership after every burst.
				k := base + uint64(rng.Intn(stripe))
				_, want := model[k]
				if _, got := api.getOne(g, k); got != want {
					werrs[w] = fmt.Errorf("worker %d burst %d: get(%d) = %v, model says %v",
						w, b, k, got, want)
				}
			})
			// Drain the stripe so the shared drain phase sees empty.
			for k := range model {
				api.deleteAll(nil, []uint64{k})
			}
		}(w)
	}
	wg.Wait()
	for _, err := range werrs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// batchDrainPhase asserts quiescent cleanliness plus the batch
// telemetry: the bursts were accounted (BatchOps, BatchedItems) and the
// guardless batches went through the batch lease path.
func batchDrainPhase(t *testing.T, d *wfe.Domain[uint64], api batchAPI, kind wfe.SchemeKind) {
	t.Helper()
	g := d.Guard()
	if api.kind() != kvKind {
		for len(api.removeN(g, 64)) > 0 {
		}
	}
	if n := api.length(g); n != 0 {
		g.Release()
		t.Fatalf("structure not empty after drain: Len = %d", n)
	}
	g.Release()

	quiesce.Settle(d)
	if err := quiesce.Check(d, kind != wfe.Leak); err != nil {
		t.Fatal(err)
	}
	tel := d.Telemetry()
	if tel.BatchOps == 0 {
		t.Fatal("no BatchOps accounted after batch churn")
	}
	if tel.BatchedItems < tel.BatchOps {
		t.Fatalf("BatchedItems %d < BatchOps %d", tel.BatchedItems, tel.BatchOps)
	}
	if tel.BatchGuardCacheHits+tel.BatchGuardCacheMisses == 0 {
		t.Fatal("guardless batches recorded no batch lease-cache traffic")
	}
	if tel.GuardCacheHits+tel.GuardCacheMisses < tel.BatchGuardCacheHits+tel.BatchGuardCacheMisses {
		t.Fatal("batch lease traffic not folded into the overall cache totals")
	}
}

// tryPrefix runs try(g, i) for i in [0, n) in one Domain.Batch and stops
// at the first error: the partial-progress loop a caller writes around
// the Try*Guarded calls. It reports how many items succeeded.
func tryPrefix(d *wfe.Domain[uint64], n int, try func(g *wfe.Guard[uint64], i int) error) (done int, err error) {
	d.Batch(func(g *wfe.Guard[uint64]) {
		for ; done < n; done++ {
			if err = try(g, done); err != nil {
				return
			}
		}
	})
	return done, err
}

// TestBatchPartialProgress pins the exhaustion contract of a Try loop
// inside a batch on every allocating structure: under the Leak scheme
// (which never recycles, so exhaustion is deterministic) a too-large
// batch applies a prefix, reports its length, and returns
// ErrArenaExhausted — and the structure holds exactly that prefix.
func TestBatchPartialProgress(t *testing.T) {
	const capacity = 128
	build := func(t *testing.T) *wfe.Domain[uint64] {
		d, err := wfe.NewDomain[uint64](wfe.Options{
			Scheme:    wfe.Leak,
			Capacity:  capacity,
			MaxGuards: 2,
			Debug:     true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	vals := make([]uint64, capacity+64)
	keys := make([]uint64, capacity+64)
	for i := range vals {
		vals[i] = uint64(i) + 1
		keys[i] = uint64(i) + 1
	}
	checkPrefix := func(t *testing.T, done int, err error) {
		t.Helper()
		if !errors.Is(err, wfe.ErrArenaExhausted) {
			t.Fatalf("err = %v, want ErrArenaExhausted", err)
		}
		if done == 0 || done >= len(vals) {
			t.Fatalf("applied %d, want a proper prefix of %d", done, len(vals))
		}
	}

	t.Run("Stack", func(t *testing.T) {
		d := build(t)
		s := wfe.NewStack[uint64](d)
		pushed, err := tryPrefix(d, len(vals), func(g *wfe.Guard[uint64], i int) error {
			return s.TryPushGuarded(g, vals[i])
		})
		checkPrefix(t, pushed, err)
		if n := s.Len(); n != pushed {
			t.Fatalf("Len = %d, pushed = %d", n, pushed)
		}
		// The prefix landed in slice order: the top is vals[pushed-1].
		if got, ok := s.Pop(); !ok || got != vals[pushed-1] {
			t.Fatalf("top = %d,%v, want %d", got, ok, vals[pushed-1])
		}
	})

	fifo := func(t *testing.T, d *wfe.Domain[uint64], q interface {
		TryEnqueueGuarded(*wfe.Guard[uint64], uint64) error
		Dequeue() (uint64, bool)
	}) {
		enq, err := tryPrefix(d, len(vals), func(g *wfe.Guard[uint64], i int) error {
			return q.TryEnqueueGuarded(g, vals[i])
		})
		checkPrefix(t, enq, err)
		for i := 0; i < enq; i++ {
			if v, ok := q.Dequeue(); !ok || v != vals[i] {
				t.Fatalf("dequeue %d = %d,%v, want %d", i, v, ok, vals[i])
			}
		}
		if v, ok := q.Dequeue(); ok {
			t.Fatalf("dequeued %d past the enqueued prefix of %d", v, enq)
		}
	}
	t.Run("Queue", func(t *testing.T) {
		d := build(t)
		fifo(t, d, wfe.NewQueue[uint64](d))
	})
	t.Run("WFQueue", func(t *testing.T) {
		d := build(t)
		fifo(t, d, wfe.NewWFQueue[uint64](d))
	})

	t.Run("HashMap", func(t *testing.T) {
		d := build(t)
		m := wfe.NewHashMap[uint64](d, 8)
		applied, err := m.TryMultiPut(keys, vals)
		checkPrefix(t, applied, err)
		vs, oks := m.MultiGet(keys)
		for i := range keys {
			if oks[i] != (i < applied) {
				t.Fatalf("key %d present=%v, applied prefix is %d", keys[i], oks[i], applied)
			}
			if oks[i] && vs[i] != vals[i] {
				t.Fatalf("key %d = %d, want %d", keys[i], vs[i], vals[i])
			}
		}
	})

	t.Run("Tree", func(t *testing.T) {
		d := build(t)
		tr := wfe.NewTree[uint64](d)
		inserted, err := tryPrefix(d, len(keys), func(g *wfe.Guard[uint64], i int) error {
			ok, err := tr.TryInsertGuarded(g, keys[i], vals[i])
			if err == nil && !ok {
				t.Errorf("fresh key %d reported present", keys[i])
			}
			return err
		})
		checkPrefix(t, inserted, err)
		for i := range keys {
			if _, ok := tr.Get(keys[i]); ok != (i < inserted) {
				t.Fatalf("key %d present=%v, inserted prefix is %d", keys[i], ok, inserted)
			}
		}
	})
}

// TestBatchTraceBracket pins the trace contract: a batch emits one
// batch-begin/batch-end pair around its items, with the item and retire
// counts in the end record's payloads.
func TestBatchTraceBracket(t *testing.T) {
	d, err := wfe.NewDomain[uint64](wfe.Options{
		Scheme:    wfe.WFE,
		Capacity:  1 << 10,
		MaxGuards: 2,
		Trace:     true,
		Debug:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := wfe.NewHashMap[uint64](d, 8)
	keys := []uint64{1, 2, 3, 4}
	vals := []uint64{10, 20, 30, 40}
	if _, err := m.TryMultiPut(keys, vals); err != nil {
		t.Fatal(err)
	}
	m.MultiDelete(keys)

	var begins, ends int
	var lastEnd wfe.TraceEvent
	for _, ev := range d.TraceEvents() {
		switch ev.Kind {
		case "batch-begin":
			begins++
		case "batch-end":
			ends++
			lastEnd = ev
		}
	}
	if begins != 2 || ends != 2 {
		t.Fatalf("trace brackets: %d begins, %d ends, want 2 and 2", begins, ends)
	}
	// The delete batch ran last: 4 items, 4 retires in its burst.
	if lastEnd.A != 4 || lastEnd.B != 4 {
		t.Fatalf("batch-end payload = items %d retires %d, want 4 and 4", lastEnd.A, lastEnd.B)
	}
}

// TestBatchLeavesNoReservation pins the end of a batch: one retiring batch
// (deletes, pops or dequeues) on a pinned guard must hand its retire
// burst to the cadence — the tid's first cadence step scans — and must
// close the protection span it opened. With the guard still pinned but
// idle, a quiescent Scavenge then reclaims every retired block; a hazard,
// reservation or epoch announcement left over from the batch would pin
// some of them.
func TestBatchLeavesNoReservation(t *testing.T) {
	const width = 32
	keys := make([]uint64, width)
	for i := range keys {
		keys[i] = uint64(i + 1)
	}
	for _, st := range batchStructures {
		for _, kind := range nonLeakSchemes() {
			t.Run(st.name+"/"+kind.String(), func(t *testing.T) {
				d := testDomain(t, kind, 2, 1<<12, false)
				api := st.build(d)
				g := d.Pin()
				defer d.Unpin(g)
				if api.kind() == kvKind {
					api.putAll(g, keys, keys)
				} else {
					api.insertAll(g, keys)
				}
				scans := d.Telemetry().ScanScans
				if api.kind() == kvKind {
					for i, ok := range api.deleteAll(g, keys) {
						if !ok {
							t.Fatalf("key %d missing from the batch delete", keys[i])
						}
					}
				} else if got := api.removeN(g, width); len(got) != width {
					t.Fatalf("removed %d values, want %d", len(got), width)
				}
				if d.Telemetry().ScanScans == scans {
					t.Error("the retiring batch ran no cadence scan")
				}
				d.Scavenge()
				if n := d.Unreclaimed(); n != 0 {
					t.Errorf("Unreclaimed = %d after Scavenge with the guard idle, want 0", n)
				}
			})
		}
	}
}

// TestBatchStallDropsSpan pins the batch-wide allocate-before-protect
// rule on every judged scheme. One guard runs a single Domain.Batch that
// first deletes every key of a full arena and then puts as many fresh
// keys: the puts can only succeed by recycling the batch's own retirees,
// so the first put's allocation stalls inside the open span. The stall
// must drop the span while the emergency pipeline runs — held across it,
// the batch's epoch announcement (EBR) or era reservations (HE, WFE and
// the interval schemes) pin every block the rescue needs, and the puts
// fail with ErrArenaExhausted. HP's hazards cover at most three blocks,
// which the later items overwrite, so HP passes either way and only
// checks the path runs.
func TestBatchStallDropsSpan(t *testing.T) {
	const n = 64
	for _, kind := range nonLeakSchemes() {
		t.Run(kind.String(), func(t *testing.T) {
			d, err := wfe.NewDomain[uint64](wfe.Options{
				Scheme:       kind,
				Capacity:     n,
				MaxGuards:    1,
				AllocBackoff: 10 * time.Microsecond,
				Debug:        true,
			})
			if err != nil {
				t.Fatal(err)
			}
			m := wfe.NewHashMap[uint64](d, 16)
			for k := uint64(0); k < n; k++ {
				if ok, err := m.TryInsert(k, k); !ok || err != nil {
					t.Fatalf("prefill key %d: ok=%v err=%v", k, ok, err)
				}
			}
			put, deleted := 0, 0
			d.Batch(func(g *wfe.Guard[uint64]) {
				for k := uint64(0); k < n; k++ {
					if m.DeleteGuarded(g, k) {
						deleted++
					}
				}
				for ; put < n; put++ {
					if err = m.TryPutGuarded(g, uint64(n+put), uint64(put)); err != nil {
						return
					}
				}
			})
			if deleted != n {
				t.Fatalf("deleted %d of %d prefilled keys", deleted, n)
			}
			if err != nil {
				t.Fatalf("put %d of %d keys, then %v: the stall ran with the batch's span held", put, n, err)
			}
			if d.Telemetry().AllocStalls == 0 {
				t.Fatal("no allocation stalled: the batch never exercised the stall path")
			}
			if l := m.Len(); l != n {
				t.Fatalf("Len = %d after the batch, want %d", l, n)
			}
		})
	}
}

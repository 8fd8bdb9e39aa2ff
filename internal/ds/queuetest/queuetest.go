// Package queuetest is the shared conformance suite for the MPMC queues:
// sequential FIFO semantics, empty-queue behaviour, and a concurrent
// conservation + per-producer-order stress run under every reclamation
// scheme with arena poisoning armed.
package queuetest

import (
	"sync"
	"testing"
	"time"

	"wfe/internal/mem"
	"wfe/internal/reclaim"
	"wfe/internal/schemes"
)

// Queue is the operation set under test. Enqueue reports false when the
// arena is exhausted; every arena in the suite is sized for its workload,
// so the suite fails on false.
type Queue interface {
	Enqueue(tid int, v uint64) bool
	Dequeue(tid int) (uint64, bool)
}

// Builder constructs the queue under test for maxThreads threads.
type Builder func(smr reclaim.Scheme, maxThreads int) Queue

// Opener constructs the queue under test over a fresh debug arena running
// the named scheme ("-slow" suffix included) for threads threads, and
// returns with it a count of the arena's live blocks.
type Opener func(t testing.TB, scheme string, threads, capacity int) (q Queue, live func() int)

var schemesUnderTest = []string{"WFE", "WFE-slow", "HE", "HP", "EBR", "2GEIBR", "WFE-IBR", "WFE-IBR-slow", "Leak"}

func newScheme(t testing.TB, name string, threads, capacity int) reclaim.Scheme {
	t.Helper()
	a := mem.New(mem.Config{Capacity: capacity, MaxThreads: threads, Debug: true})
	s, err := schemes.New(name, a, reclaim.Config{
		MaxThreads: threads, EraFreq: 32, CleanupFreq: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// RunQueueSuite runs the full conformance suite on a queue built over a
// raw reclaim.Scheme.
func RunQueueSuite(t *testing.T, build Builder) {
	RunSuite(t, func(t testing.TB, scheme string, threads, capacity int) (Queue, func() int) {
		smr := newScheme(t, scheme, threads, capacity)
		return build(smr, threads), func() int { return int(smr.Arena().Stats().InUse) }
	})
}

// RunSuite runs the full conformance suite on queues built by open.
func RunSuite(t *testing.T, open Opener) {
	t.Run("SequentialFIFO", func(t *testing.T) { runSequential(t, open) })
	t.Run("EmptyBehaviour", func(t *testing.T) { runEmpty(t, open) })
	t.Run("AlternatingChurn", func(t *testing.T) { runChurn(t, open) })
	for _, name := range schemesUnderTest {
		t.Run("Stress/"+name, func(t *testing.T) { runStress(t, open, name) })
	}
	t.Run("RealTimeOrder", func(t *testing.T) { RunRealTimeOrderCheck(t, open) })
}

func runSequential(t *testing.T, open Opener) {
	q, _ := open(t, "WFE", 1, 1<<12)
	for v := uint64(1); v <= 200; v++ {
		enqueue(t, q, 0, v)
	}
	for v := uint64(1); v <= 200; v++ {
		got, ok := q.Dequeue(0)
		if !ok || got != v {
			t.Fatalf("Dequeue = %d,%v; want %d", got, ok, v)
		}
	}
	if _, ok := q.Dequeue(0); ok {
		t.Fatal("drained queue returned a value")
	}
}

func runEmpty(t *testing.T, open Opener) {
	q, _ := open(t, "WFE", 1, 1<<12)
	if _, ok := q.Dequeue(0); ok {
		t.Fatal("empty queue returned a value")
	}
	enqueue(t, q, 0, 7)
	if v, ok := q.Dequeue(0); !ok || v != 7 {
		t.Fatalf("Dequeue = %d,%v; want 7", v, ok)
	}
	if _, ok := q.Dequeue(0); ok {
		t.Fatal("queue not empty after drain")
	}
	// Refill after emptiness.
	enqueue(t, q, 0, 8)
	enqueue(t, q, 0, 9)
	if v, _ := q.Dequeue(0); v != 8 {
		t.Fatal("FIFO broken after refill")
	}
	if v, _ := q.Dequeue(0); v != 9 {
		t.Fatal("FIFO broken after refill")
	}
}

// runChurn exercises node recycling: enqueue/dequeue pairs far beyond the
// arena capacity only fit if reclamation actually recycles nodes.
func runChurn(t *testing.T, open Opener) {
	q, live := open(t, "WFE", 1, 512)
	for i := uint64(0); i < 20000; i++ {
		enqueue(t, q, 0, i)
		v, ok := q.Dequeue(0)
		if !ok || v != i {
			t.Fatalf("churn iteration %d: got %d,%v", i, v, ok)
		}
	}
	if inUse := live(); inUse > 400 {
		t.Fatalf("nodes not recycled: %d in use", inUse)
	}
}

// runStress checks conservation (every enqueued value dequeued at most
// once, none lost) and per-producer FIFO order under concurrency. Values
// encode producer and sequence so consumers can verify order.
func runStress(t *testing.T, open Opener, schemeName string) {
	if testing.Short() {
		t.Skip("stress test")
	}
	const (
		producers = 2
		consumers = 2
		perProd   = 8000
	)
	threads := producers + consumers
	capacity := 1 << 16
	if schemeName == "Leak" {
		capacity = producers*perProd + 2048
	}
	q, _ := open(t, schemeName, threads, capacity)

	dequeued := make([][]uint64, consumers)
	var wg sync.WaitGroup
	var done sync.WaitGroup
	done.Add(producers)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			defer done.Done()
			for i := uint64(0); i < perProd; i++ {
				enqueue(t, q, tid, uint64(tid)<<32|i)
			}
		}(p)
	}
	stop := make(chan struct{})
	go func() { done.Wait(); close(stop) }()
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			tid := producers + idx
			for {
				v, ok := q.Dequeue(tid)
				if ok {
					dequeued[idx] = append(dequeued[idx], v)
					continue
				}
				select {
				case <-stop:
					// Producers done and queue observed empty: one more
					// confirming pass, then exit.
					if v, ok := q.Dequeue(tid); ok {
						dequeued[idx] = append(dequeued[idx], v)
						continue
					}
					return
				default:
				}
			}
		}(c)
	}
	wg.Wait()

	// Drain any remainder.
	rest := []uint64{}
	for {
		v, ok := q.Dequeue(0)
		if !ok {
			break
		}
		rest = append(rest, v)
	}

	seen := make(map[uint64]int)
	lastSeq := make([]map[int]uint64, consumers+1) // per consumer: producer → last seq
	for i := range lastSeq {
		lastSeq[i] = make(map[int]uint64)
	}
	account := func(consumer int, vs []uint64) {
		for _, v := range vs {
			seen[v]++
			prod := int(v >> 32)
			seq := v & 0xFFFFFFFF
			if last, ok := lastSeq[consumer][prod]; ok && seq <= last {
				t.Fatalf("%s: consumer %d saw producer %d out of order: %d after %d",
					schemeName, consumer, prod, seq, last)
			}
			lastSeq[consumer][prod] = seq
		}
	}
	for c := range dequeued {
		account(c, dequeued[c])
	}
	account(consumers, rest)

	if len(seen) != producers*perProd {
		t.Fatalf("%s: %d values accounted for, want %d", schemeName, len(seen), producers*perProd)
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("%s: value %x dequeued %d times", schemeName, v, n)
		}
	}
}

// opStamp records the real-time window of one operation.
type opStamp struct {
	value      uint64
	start, end int64 // ns offsets
}

// RunRealTimeOrderCheck is a linearizability spot-check on real-time order:
// if enqueue(a) completed before enqueue(b) started, then a precedes b in
// the queue, so observing dequeue(b) complete before dequeue(a) starts is a
// linearizability violation. The pairwise check is a sound (necessary)
// condition that catches reordering bugs without full history search.
func RunRealTimeOrderCheck(t *testing.T, open Opener) {
	if testing.Short() {
		t.Skip("stress test")
	}
	const (
		producers = 2
		consumers = 2
		perProd   = 3000
	)
	threads := producers + consumers
	q, _ := open(t, "WFE", threads, 1<<16)

	var (
		enqs = make([][]opStamp, producers)
		deqs = make([][]opStamp, consumers)
		wg   sync.WaitGroup
		done sync.WaitGroup
	)
	base := time.Now()
	done.Add(producers)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			defer done.Done()
			for i := uint64(0); i < perProd; i++ {
				v := uint64(tid)<<32 | i
				s := time.Since(base).Nanoseconds()
				enqueue(t, q, tid, v)
				enqs[tid] = append(enqs[tid], opStamp{v, s, time.Since(base).Nanoseconds()})
			}
		}(p)
	}
	stop := make(chan struct{})
	go func() { done.Wait(); close(stop) }()
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			tid := producers + idx
			for {
				s := time.Since(base).Nanoseconds()
				v, ok := q.Dequeue(tid)
				if ok {
					deqs[idx] = append(deqs[idx], opStamp{v, s, time.Since(base).Nanoseconds()})
					continue
				}
				select {
				case <-stop:
					if v, ok := q.Dequeue(tid); ok {
						deqs[idx] = append(deqs[idx], opStamp{v, s, time.Since(base).Nanoseconds()})
						continue
					}
					return
				default:
				}
			}
		}(c)
	}
	wg.Wait()

	enqBy := make(map[uint64]opStamp)
	for _, es := range enqs {
		for _, e := range es {
			enqBy[e.value] = e
		}
	}
	deqBy := make(map[uint64]opStamp)
	for _, dss := range deqs {
		for _, d := range dss {
			deqBy[d.value] = d
		}
	}

	var all []opStamp
	for _, es := range enqs {
		all = append(all, es...)
	}
	violations := 0
	for i := range all {
		for j := range all {
			a, b := all[i], all[j]
			if a.end >= b.start {
				continue // enqueues overlap: no order imposed
			}
			da, oka := deqBy[a.value]
			db, okb := deqBy[b.value]
			if !oka || !okb {
				continue
			}
			if db.end < da.start {
				t.Errorf("real-time order violated: enq(%x) < enq(%x) but deq(%x) finished before deq(%x) started",
					a.value, b.value, b.value, a.value)
				violations++
				if violations > 5 {
					t.FailNow()
				}
			}
		}
	}
}

// enqueue enqueues v on behalf of tid and fails the test when the arena
// reports exhaustion. Safe to call from the stress goroutines.
func enqueue(t testing.TB, q Queue, tid int, v uint64) {
	if !q.Enqueue(tid, v) {
		t.Errorf("Enqueue(%d, %d) reported an exhausted arena", tid, v)
	}
}

package wfe_test

// Allocation backpressure acceptance tests: the emergency-reclamation
// pipeline must keep a workload alive on an arena sized at roughly half
// its working set under every judged scheme, the Try* API must surface
// ErrArenaExhausted instead of panicking when the pipeline genuinely
// cannot help, and the pressure gauge must be visible end to end through
// Telemetry and the OpenMetrics exposition.

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wfe"
	"wfe/internal/bench"
	"wfe/internal/quiesce"
	"wfe/metrics"
)

// nonLeakSchemes is every scheme with a judge — the ones the emergency
// pipeline can actually help.
func nonLeakSchemes() []wfe.SchemeKind {
	var out []wfe.SchemeKind
	for _, kind := range wfe.AllSchemes() {
		if kind != wfe.Leak {
			out = append(out, kind)
		}
	}
	return out
}

// TestExhaustionStormAllSchemes is the headline acceptance bar: eight
// goroutines hammer a guardless HashMap whose working set — the live map
// plus the retire backlog a cadence this lazy accumulates — is about
// twice the arena. Every allocation past the ceiling rides the emergency
// pipeline; the run must finish with zero surfaced errors, must actually
// have entered the pipeline, and must quiesce to a clean census.
func TestExhaustionStormAllSchemes(t *testing.T) {
	for _, kind := range nonLeakSchemes() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			const (
				goroutines = 8
				opsPerG    = 4000
				keyRange   = 400
				capacity   = 1 << 10
			)
			d, err := wfe.NewDomain[uint64](wfe.Options{
				Scheme:    kind,
				Capacity:  capacity,
				MaxGuards: goroutines,
				// No cadence scans: the run's retire volume never reaches
				// the threshold, so reclamation happens only when an
				// allocation stalls and forces it.
				CleanupFreq: 1 << 20,
				// Fast era clock so a stalled allocator's own reservation
				// pins only a handful of freshly-retired blocks.
				EraFreq: 2,
				// Small spill batches so one goroutine's emergency frees
				// reach the global pool — and everyone else — quickly. This
				// is load-bearing arithmetic, not tuning: caches spill past
				// 2×SpillSize, so 8 tids can strand 8×2×SpillSize frees in
				// private caches; that figure must stay well under the
				// circulating pool (capacity minus the live set) or a tid
				// whose own retire ring is empty can starve while every
				// free block hides in someone else's cache.
				SpillSize: 16,
				Debug:     true,
			})
			if err != nil {
				t.Fatal(err)
			}
			m := wfe.NewHashMap[uint64](d, 64)
			var surfaced atomic.Uint64
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := uint64(g)*0x9e3779b97f4a7c15 + 1
					for i := 0; i < opsPerG; i++ {
						rng ^= rng << 13
						rng ^= rng >> 7
						rng ^= rng << 17
						key := rng % keyRange
						if rng%8 == 0 {
							m.Get(key)
							continue
						}
						if err := m.TryPut(key, rng); err != nil {
							surfaced.Add(1)
						}
					}
				}(g)
			}
			wg.Wait()
			if n := surfaced.Load(); n != 0 {
				t.Errorf("%d operation(s) surfaced ErrArenaExhausted despite emergency reclamation", n)
			}
			if d.Telemetry().EmergencyScans == 0 {
				t.Error("storm never entered the emergency pipeline — arena not undersized for the workload")
			}
			for key := uint64(0); key < keyRange; key++ {
				m.Delete(key)
			}
			quiesce.Settle(d)
			if err := quiesce.Check(d, true); err != nil {
				t.Errorf("post-storm quiesce: %v", err)
			}
		})
	}
}

// TestQueueExhaustionStormAllSchemes is the exhaustion storm for the two
// wait-free queues, whose node allocation sits inside internal/ds: eight
// goroutines run guardless 50/50 TryEnqueue/Dequeue on the HashMap storm's
// undersized, lazily-scanned arena. Each queue must allocate its node
// before protecting anything, so a stalled allocation holds no epoch or
// reservation that pins its own rescue: zero surfaced errors, every
// enqueued value dequeued exactly once after a final drain, the emergency
// pipeline actually entered, and a clean quiescent census.
func TestQueueExhaustionStormAllSchemes(t *testing.T) {
	type tryQueue interface {
		TryEnqueue(uint64) error
		Dequeue() (uint64, bool)
	}
	queues := []struct {
		name string
		open func(d *wfe.Domain[uint64]) tryQueue
	}{
		{"WFQueue", func(d *wfe.Domain[uint64]) tryQueue { return wfe.NewWFQueue(d) }},
		{"TurnQueue", func(d *wfe.Domain[uint64]) tryQueue { return wfe.NewTurnQueue(d) }},
	}
	for _, qc := range queues {
		for _, kind := range nonLeakSchemes() {
			qc, kind := qc, kind
			t.Run(qc.name+"/"+kind.String(), func(t *testing.T) {
				const (
					goroutines = 8
					opsPerG    = 4000
				)
				// The HashMap storm's options: no cadence scans, a fast era
				// clock and small spill batches (see the comments there).
				d, err := wfe.NewDomain[uint64](wfe.Options{
					Scheme:      kind,
					Capacity:    1 << 10,
					MaxGuards:   goroutines,
					CleanupFreq: 1 << 20,
					EraFreq:     2,
					SpillSize:   16,
					Debug:       true,
				})
				if err != nil {
					t.Fatal(err)
				}
				q := qc.open(d)
				var surfaced, enqueued, dequeued atomic.Uint64
				var wg sync.WaitGroup
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						rng := uint64(g)*0x9e3779b97f4a7c15 + 1
						for i := 0; i < opsPerG; i++ {
							rng ^= rng << 13
							rng ^= rng >> 7
							rng ^= rng << 17
							if rng%2 == 0 {
								if err := q.TryEnqueue(rng); err != nil {
									surfaced.Add(1)
								} else {
									enqueued.Add(1)
								}
							} else if _, ok := q.Dequeue(); ok {
								dequeued.Add(1)
							}
						}
					}(g)
				}
				wg.Wait()
				if n := surfaced.Load(); n != 0 {
					t.Errorf("%d enqueue(s) surfaced ErrArenaExhausted despite emergency reclamation", n)
				}
				if d.Telemetry().EmergencyScans == 0 {
					t.Error("storm never entered the emergency pipeline — arena not undersized for the workload")
				}
				for {
					if _, ok := q.Dequeue(); !ok {
						break
					}
					dequeued.Add(1)
				}
				if e, dq := enqueued.Load(), dequeued.Load(); e != dq {
					t.Errorf("enqueued %d values, dequeued %d after the drain", e, dq)
				}
				quiesce.Settle(d)
				if err := quiesce.Check(d, true); err != nil {
					t.Errorf("post-storm quiesce: %v", err)
				}
			})
		}
	}
}

// TestEmergencyScanReachesIdleGuards pins the emergency pipeline's reach
// into idle guards: guard A leaves a retire backlog and goes idle in the
// lease cache, then guard B — whose own ring is empty — fills the arena
// with live blocks. B's stalled allocations can only be met from A's
// backlog, and nobody retires on A's tid again, so the pipeline itself
// must scan A's ring: once B's fill ends, no retired block may be left.
func TestEmergencyScanReachesIdleGuards(t *testing.T) {
	for _, kind := range nonLeakSchemes() {
		t.Run(kind.String(), func(t *testing.T) {
			d, err := wfe.NewDomain[uint64](wfe.Options{
				Scheme:       kind,
				Capacity:     256,
				MaxGuards:    2,
				CleanupFreq:  1 << 20, // no cadence scans: A's backlog stays put
				SpillSize:    16,
				AllocRetries: 2,
				AllocBackoff: time.Microsecond,
				Debug:        true,
			})
			if err != nil {
				t.Fatal(err)
			}
			s := wfe.NewStack[uint64](d)
			b := d.Guard() // held throughout, so A gets the other tid
			defer b.Release()
			a := d.Pin()
			for i := uint64(0); i < 128; i++ {
				s.PushGuarded(a, i)
				s.PopGuarded(a)
			}
			d.Unpin(a) // A idles in the lease cache with its backlog
			if n := d.Unreclaimed(); n < 100 {
				t.Fatalf("idle guard's backlog = %d, want most of its 128 retires", n)
			}
			for s.TryPushGuarded(b, 1) == nil {
			}
			if n := d.Unreclaimed(); n != 0 {
				t.Errorf("Unreclaimed = %d once the arena is full of live blocks, want 0: the idle guard's backlog was never scanned", n)
			}
		})
	}
}

// smallDomain builds a Domain whose arena genuinely cannot satisfy more
// than its capacity in live blocks, with the retry ladder shortened so
// each surfaced error costs microseconds, not the default backoff budget.
func smallDomain(t *testing.T, kind wfe.SchemeKind, capacity int) *wfe.Domain[uint64] {
	t.Helper()
	d, err := wfe.NewDomain[uint64](wfe.Options{
		Scheme:       kind,
		Capacity:     capacity,
		MaxGuards:    4,
		AllocRetries: 2,
		AllocBackoff: time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestTryVariantsSurfaceExhaustion fills each structure with live nodes —
// which no scheme can reclaim — until its Try* insert surfaces an error,
// and asserts the error is ErrArenaExhausted by errors.Is. WFE (judged:
// the pipeline runs and still fails honestly) and Leak (judge-less: the
// pipeline short-circuits) both land on the same sentinel.
func TestTryVariantsSurfaceExhaustion(t *testing.T) {
	fillUntil := func(t *testing.T, op func() error) error {
		t.Helper()
		for i := 0; i < 1<<12; i++ {
			if err := op(); err != nil {
				return err
			}
		}
		t.Fatal("arena never exhausted: structure is leaking capacity assumptions")
		return nil
	}
	for _, kind := range []wfe.SchemeKind{wfe.WFE, wfe.Leak} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Run("stack", func(t *testing.T) {
				s := wfe.NewStack[uint64](smallDomain(t, kind, 64))
				err := fillUntil(t, func() error { return s.TryPush(7) })
				if !errors.Is(err, wfe.ErrArenaExhausted) {
					t.Fatalf("TryPush error = %v, want ErrArenaExhausted", err)
				}
			})
			t.Run("queue", func(t *testing.T) {
				q := wfe.NewQueue[uint64](smallDomain(t, kind, 64))
				err := fillUntil(t, func() error { return q.TryEnqueue(7) })
				if !errors.Is(err, wfe.ErrArenaExhausted) {
					t.Fatalf("TryEnqueue error = %v, want ErrArenaExhausted", err)
				}
			})
			t.Run("wfqueue", func(t *testing.T) {
				q := wfe.NewWFQueue[uint64](smallDomain(t, kind, 128))
				err := fillUntil(t, func() error { return q.TryEnqueue(7) })
				if !errors.Is(err, wfe.ErrArenaExhausted) {
					t.Fatalf("TryEnqueue error = %v, want ErrArenaExhausted", err)
				}
			})
			t.Run("turnqueue", func(t *testing.T) {
				q := wfe.NewTurnQueue[uint64](smallDomain(t, kind, 128))
				err := fillUntil(t, func() error { return q.TryEnqueue(7) })
				if !errors.Is(err, wfe.ErrArenaExhausted) {
					t.Fatalf("TryEnqueue error = %v, want ErrArenaExhausted", err)
				}
			})
			t.Run("hashmap", func(t *testing.T) {
				m := wfe.NewHashMap[uint64](smallDomain(t, kind, 64), 8)
				key := uint64(0)
				err := fillUntil(t, func() error {
					key++
					return m.TryPut(key, key)
				})
				if !errors.Is(err, wfe.ErrArenaExhausted) {
					t.Fatalf("TryPut error = %v, want ErrArenaExhausted", err)
				}
				if _, err := m.TryInsert(key+1, 7); !errors.Is(err, wfe.ErrArenaExhausted) {
					t.Fatalf("TryInsert on the exhausted map = %v, want ErrArenaExhausted", err)
				}
			})
			t.Run("tree", func(t *testing.T) {
				tr := wfe.NewTree[uint64](smallDomain(t, kind, 64))
				key := uint64(0)
				err := fillUntil(t, func() error {
					key++
					_, err := tr.TryInsert(key, key)
					return err
				})
				if !errors.Is(err, wfe.ErrArenaExhausted) {
					t.Fatalf("TryInsert error = %v, want ErrArenaExhausted", err)
				}
				if err := tr.TryPut(key+1, 7); !errors.Is(err, wfe.ErrArenaExhausted) {
					t.Fatalf("TryPut on the exhausted tree = %v, want ErrArenaExhausted", err)
				}
			})
		})
	}
}

// TestPanicVariantsWrapSentinel pins the duality: the panicking methods
// throw a value that errors.Is-matches ErrArenaExhausted and that the
// bench harness's LeakExhausted classifier recognizes on both its paths
// (the error-typed value here, the arena's raw string from the pre-Domain
// path).
func TestPanicVariantsWrapSentinel(t *testing.T) {
	s := wfe.NewStack[uint64](smallDomain(t, wfe.Leak, 16))
	for {
		if err := s.TryPush(1); err != nil {
			break
		}
	}
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		s.Push(2)
	}()
	if recovered == nil {
		t.Fatal("Push on an exhausted Leak arena did not panic")
	}
	err, ok := recovered.(error)
	if !ok || !errors.Is(err, wfe.ErrArenaExhausted) {
		t.Fatalf("panic value %v is not an error wrapping ErrArenaExhausted", recovered)
	}
	if !strings.Contains(err.Error(), "arena exhausted") {
		t.Fatalf("panic message %q lost the %q substring older tooling matches on", err, "arena exhausted")
	}
	if !bench.LeakExhausted(recovered, wfe.Leak) {
		t.Error("bench.LeakExhausted does not recognize the error-typed exhaustion panic")
	}
	if bench.LeakExhausted(recovered, wfe.WFE) {
		t.Error("bench.LeakExhausted must only excuse the Leak baseline")
	}
	if !bench.LeakExhausted("mem: arena exhausted (capacity 16)", wfe.Leak) {
		t.Error("bench.LeakExhausted lost the raw-string arena panic path")
	}
}

// TestPressureGaugeAndMetrics drives a Domain into sustained pressure and
// follows the backpressure counters end to end: Telemetry, the advisor
// sample's InUse/Capacity occupancy, and the OpenMetrics exposition's
// pressure families.
func TestPressureGaugeAndMetrics(t *testing.T) {
	d := smallDomain(t, wfe.WFE, 256)
	s := wfe.NewStack[uint64](d)
	for {
		if err := s.TryPush(1); err != nil {
			break
		}
	}
	// Free a little and refill: the pipeline now has retired blocks to
	// recycle, so at least one stall resolves inside it.
	for i := 0; i < 64; i++ {
		s.Pop()
	}
	for i := 0; i < 32; i++ {
		if err := s.TryPush(1); err != nil {
			break
		}
	}
	tel := d.Telemetry()
	if tel.AllocStalls == 0 || tel.EmergencyScans == 0 {
		t.Fatalf("backpressure counters empty after an exhausted fill: %+v", tel)
	}
	occupancy := float64(tel.InUse) / float64(tel.Capacity)
	if occupancy < 0.5 {
		t.Fatalf("occupancy %.2f implausibly low for a filled arena", occupancy)
	}
	if got := tel.AdvisorSample(0).Pressure; got != occupancy {
		t.Fatalf("advisor sample pressure %.4f, want InUse/Capacity %.4f", got, occupancy)
	}

	reg := metrics.NewRegistry()
	reg.Register("press", d.Telemetry)
	var buf bytes.Buffer
	if err := reg.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if err := metrics.Validate(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("exposition with pressure families is malformed: %v", err)
	}
	for _, want := range []string{"wfe_arena_pressure", "wfe_alloc_stalls_total", "wfe_emergency_scans_total"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition is missing %s", want)
		}
	}
}

// TestScavengeCollapsesLazyBacklog pins the quiescent sibling of the
// emergency scan: a drained Domain whose CleanupFreq never fired keeps
// its whole backlog in per-tid rings until Scavenge sweeps them.
func TestScavengeCollapsesLazyBacklog(t *testing.T) {
	d, err := wfe.NewDomain[uint64](wfe.Options{
		Scheme:      wfe.WFE,
		Capacity:    1 << 12,
		MaxGuards:   2,
		CleanupFreq: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := wfe.NewStack[uint64](d)
	for i := 0; i < 512; i++ {
		s.Push(uint64(i))
	}
	for i := 0; i < 512; i++ {
		s.Pop()
	}
	if got := d.Unreclaimed(); got < 256 {
		t.Fatalf("lazy cadence should have stranded the backlog in rings, Unreclaimed = %d", got)
	}
	freed := d.Scavenge()
	if freed == 0 {
		t.Fatal("Scavenge freed nothing from a fully-retired backlog")
	}
	if got := d.Unreclaimed(); got > 16 {
		t.Errorf("backlog %d survived Scavenge", got)
	}
}

package reclaim

import (
	"sync"
	"sync/atomic"
	"testing"

	"wfe/internal/mem"
)

// fakeJudge is a configurable Judge for driving the runtime without a real
// scheme: gather/canFree default to "gather nothing, free everything".
type fakeJudge struct {
	gather  func(tid int, s *Snapshot)
	canFree func(tid int, s *Snapshot, blk mem.Handle) bool
	gathers atomic.Int64
}

func (j *fakeJudge) Gather(tid int, s *Snapshot) {
	j.gathers.Add(1)
	if j.gather != nil {
		j.gather(tid, s)
	}
}

func (j *fakeJudge) CanFree(tid int, s *Snapshot, blk mem.Handle) bool {
	if j.canFree != nil {
		return j.canFree(tid, s, blk)
	}
	return true
}

func testArena(t *testing.T, capacity, threads int) *mem.Arena {
	t.Helper()
	return mem.New(mem.Config{Capacity: capacity, MaxThreads: threads, Debug: true})
}

func TestRetirerGatingCadence(t *testing.T) {
	a := testArena(t, 1<<10, 1)
	j := &fakeJudge{canFree: func(int, *Snapshot, mem.Handle) bool { return false }}
	r := NewRetirer(a, Config{MaxThreads: 1, CleanupFreq: 10}, j)

	for i := 0; i < 25; i++ {
		r.Retire(0, mustAlloc(a, 0))
	}
	// Scans fire at retirement ordinals 0, 10 and 20 — the paper's
	// counter-is-a-multiple cadence, first retirement included.
	if got := j.gathers.Load(); got != 3 {
		t.Fatalf("gathers = %d over 25 retirements at CleanupFreq 10, want 3", got)
	}
	st := r.Stats()
	if st.Scans != 3 {
		t.Fatalf("Stats().Scans = %d, want 3", st.Scans)
	}
	// Scan 1 examined 1 block, scan 2 examined 11, scan 3 examined 21
	// (nothing freed, so the ring only grows).
	if st.Blocks != 1+11+21 {
		t.Fatalf("Stats().Blocks = %d, want %d", st.Blocks, 1+11+21)
	}
	if r.Unreclaimed() != 25 {
		t.Fatalf("Unreclaimed = %d, want 25", r.Unreclaimed())
	}
}

// TestRetirerBurstDefersCadence drives bursts through the one Retire
// path: inside a burst every block is queued and published at once, but
// the cadence — OnRetire, the gated scan, the counter — steps once, at
// EndBurst, on the burst's last block.
func TestRetirerBurstDefersCadence(t *testing.T) {
	a := testArena(t, 1<<10, 1)
	j := &observingJudge{}
	r := NewRetirer(a, Config{MaxThreads: 1, CleanupFreq: 2}, j)

	var last mem.Handle
	for burst := 0; burst < 3; burst++ {
		before := r.Unreclaimed()
		r.BeginBurst(0)
		for i := 0; i < 8; i++ {
			last = mustAlloc(a, 0)
			r.Retire(0, last)
		}
		if got := r.Unreclaimed(); got != before+8 {
			t.Fatalf("burst %d: Unreclaimed = %d mid-burst, want %d published", burst, got, before+8)
		}
		if got := j.gathers.Load(); got != int64(burst+1)/2 {
			t.Fatalf("burst %d: %d scans before EndBurst, want %d", burst, got, (burst+1)/2)
		}
		if n := r.EndBurst(0); n != 8 {
			t.Fatalf("EndBurst = %d, want 8", n)
		}
		if j.lastBlk != last || j.lastN != uint64(burst) {
			t.Fatalf("burst %d: OnRetire(n=%d, blk=%d), want n=%d on the last block %d",
				burst, j.lastN, j.lastBlk, burst, last)
		}
	}
	// Cadence steps 0 and 2 scan at CleanupFreq 2, freeing everything.
	if got := j.gathers.Load(); got != 2 {
		t.Fatalf("gathers = %d over 3 bursts at CleanupFreq 2, want 2", got)
	}
	if got := r.EndBurst(0); got != 0 {
		t.Fatalf("EndBurst with no burst open = %d, want 0", got)
	}
	// Outside a burst the per-retire cadence is back: step 3 does not
	// scan, step 4 does.
	r.Retire(0, mustAlloc(a, 0))
	r.Retire(0, mustAlloc(a, 0))
	if got := j.gathers.Load(); got != 3 || r.Unreclaimed() != 0 {
		t.Fatalf("after two plain retires: gathers %d, backlog %d; want 3 and 0", got, r.Unreclaimed())
	}
}

// observingJudge is a free-everything Judge that records its OnRetire
// calls.
type observingJudge struct {
	fakeJudge
	lastN   uint64
	lastBlk mem.Handle
}

func (j *observingJudge) OnRetire(tid int, n uint64, blk mem.Handle) {
	j.lastN, j.lastBlk = n, blk
}

func TestRetirerScanFreesAndRequeues(t *testing.T) {
	a := testArena(t, 1<<10, 1)
	// Free the blocks whose retire era is at or below the moving gate.
	gate := uint64(1)
	j := &fakeJudge{canFree: func(_ int, _ *Snapshot, blk mem.Handle) bool {
		return a.RetireEra(blk) <= gate
	}}
	r := NewRetirer(a, Config{MaxThreads: 1, CleanupFreq: 1 << 30}, j)

	var freeable, pinned []mem.Handle
	for i := 0; i < 8; i++ {
		f, p := mustAlloc(a, 0), mustAlloc(a, 0)
		a.SetRetireEra(f, 1)
		a.SetRetireEra(p, 2)
		r.Add(0, f)
		r.Add(0, p)
		freeable, pinned = append(freeable, f), append(pinned, p)
	}
	r.Scan(0)
	for _, blk := range freeable {
		if a.Live(blk) {
			t.Fatalf("freeable block %d survived the scan", blk)
		}
	}
	for _, blk := range pinned {
		if !a.Live(blk) {
			t.Fatalf("pinned block %d was freed", blk)
		}
	}
	if r.Unreclaimed() != len(pinned) {
		t.Fatalf("Unreclaimed = %d, want %d", r.Unreclaimed(), len(pinned))
	}
	// The survivors were re-queued and a later scan (with the gate moved
	// past their retire era) frees them.
	gate = 2
	r.Scan(0)
	if r.Unreclaimed() != 0 {
		t.Fatalf("Unreclaimed = %d after settling scan, want 0", r.Unreclaimed())
	}
}

func TestRingGrowthReuseAndOrder(t *testing.T) {
	var q ring
	// Fill past two growth steps with wrap-around in between.
	for i := 1; i <= 80; i++ {
		q.push(mem.Handle(i))
	}
	for i := 1; i <= 50; i++ {
		if got := q.pop(); got != mem.Handle(i) {
			t.Fatalf("pop #%d = %d", i, got)
		}
	}
	for i := 81; i <= 180; i++ { // wraps, then grows with head != 0
		q.push(mem.Handle(i))
	}
	if q.len() != 130 {
		t.Fatalf("len = %d, want 130", q.len())
	}
	capBefore := len(q.buf)
	for i := 51; i <= 180; i++ {
		if got := q.pop(); got != mem.Handle(i) {
			t.Fatalf("pop #%d = %d (FIFO order lost across grow/wrap)", i, got)
		}
	}
	// Steady-state churn within the settled capacity must not reallocate.
	for round := 0; round < 5; round++ {
		for i := 0; i < capBefore; i++ {
			q.push(mem.Handle(i + 1))
		}
		for i := 0; i < capBefore; i++ {
			q.pop()
		}
	}
	if len(q.buf) != capBefore {
		t.Fatalf("ring reallocated during steady-state churn: cap %d -> %d", capBefore, len(q.buf))
	}
}

// twoPhaseJudge marks phase-one verdicts provisional and frees only
// odd-era blocks in phase two, mimicking WFE's shape.
type twoPhaseJudge struct {
	fakeJudge
	arena   *mem.Arena
	seconds atomic.Int64
}

func (j *twoPhaseJudge) Gather(tid int, s *Snapshot)          { j.fakeJudge.Gather(tid, s) }
func (j *twoPhaseJudge) NeedSecond(tid int, s *Snapshot) bool { return true }
func (j *twoPhaseJudge) GatherSecond(tid int, s *Snapshot) {
	j.seconds.Add(1)
	s.SetAux(1, 1) // phase marker
}

func (j *twoPhaseJudge) CanFree(tid int, s *Snapshot, blk mem.Handle) bool {
	if s.Aux(1) == 0 {
		return true // phase one clears everything — provisionally
	}
	return j.arena.RetireEra(blk)%2 == 1
}

func TestRetirerTwoPhase(t *testing.T) {
	a := testArena(t, 1<<10, 1)
	j := &twoPhaseJudge{arena: a}
	r := NewRetirer(a, Config{MaxThreads: 1, CleanupFreq: 1 << 30}, j)

	var odd, even []mem.Handle
	for i := 0; i < 6; i++ {
		blk := mustAlloc(a, 0)
		a.SetRetireEra(blk, uint64(i))
		r.Add(0, blk)
		if i%2 == 1 {
			odd = append(odd, blk)
		} else {
			even = append(even, blk)
		}
	}
	r.Scan(0)
	if j.seconds.Load() != 1 {
		t.Fatalf("second gathers = %d, want 1", j.seconds.Load())
	}
	for _, blk := range odd {
		if a.Live(blk) {
			t.Fatal("phase-two-approved block survived")
		}
	}
	for _, blk := range even {
		if !a.Live(blk) {
			t.Fatal("phase-two-rejected block was freed")
		}
	}
	if r.Unreclaimed() != len(even) {
		t.Fatalf("Unreclaimed = %d, want %d", r.Unreclaimed(), len(even))
	}
}

func TestRetirerNilJudgeCountsOnly(t *testing.T) {
	a := testArena(t, 1<<8, 1)
	r := NewRetirer(a, Config{MaxThreads: 1, CleanupFreq: 1}, nil)
	for i := 0; i < 10; i++ {
		r.Retire(0, mustAlloc(a, 0))
	}
	if r.Unreclaimed() != 10 {
		t.Fatalf("Unreclaimed = %d, want 10 (leak mode counts)", r.Unreclaimed())
	}
	if st := r.Stats(); st.Scans != 0 || st.Blocks != 0 {
		t.Fatalf("leak mode ran scans: %+v", st)
	}
	r.Scan(0) // must be a no-op, not a panic
}

func TestRetirerStepTelemetry(t *testing.T) {
	a := testArena(t, 1<<8, 2)
	r := NewRetirer(a, Config{MaxThreads: 2}, &fakeJudge{})
	if r.MaxSteps() != 0 || r.StepQuantile(0.99) != 0 {
		t.Fatal("fresh retirer reports steps")
	}
	for i := 0; i < 99; i++ {
		r.RecordSteps(0, 1)
	}
	r.RecordSteps(1, 200) // beyond the bucket range; max stays exact
	if got := r.MaxSteps(); got != 200 {
		t.Fatalf("MaxSteps = %d, want 200", got)
	}
	if got := r.StepQuantile(0.5); got != 1 {
		t.Fatalf("p50 = %d, want 1", got)
	}
	if got := r.StepQuantile(1.0); got != StepHistBuckets-1 {
		t.Fatalf("p100 bucket = %d, want %d", got, StepHistBuckets-1)
	}
}

// intervalFakeJudge is a fakeJudge that declares the interval judge kind,
// like 2GEIBR and WFE-IBR do.
type intervalFakeJudge struct{ fakeJudge }

func (j *intervalFakeJudge) JudgeKind() JudgeKind { return IntervalJudge }

func TestRetirerCutoffResolution(t *testing.T) {
	a := testArena(t, 1<<8, 1)
	// The deterministic Config.SortCutoff override wins for both judge
	// kinds — calibration is only the zero-value default.
	r := NewRetirer(a, Config{MaxThreads: 1, SortCutoff: 7}, &fakeJudge{})
	if r.Cutoff() != 7 {
		t.Fatalf("era-judge Cutoff = %d, want the configured 7", r.Cutoff())
	}
	ri := NewRetirer(a, Config{MaxThreads: 1, SortCutoff: 9}, &intervalFakeJudge{})
	if ri.Cutoff() != 9 {
		t.Fatalf("interval-judge Cutoff = %d, want the configured 9", ri.Cutoff())
	}
	// Auto mode resolves the crossover for the judge's declared kind.
	auto := NewRetirer(a, Config{MaxThreads: 1}, &fakeJudge{})
	if auto.Cutoff() != CalibrateKind(EraJudge) {
		t.Fatalf("Cutoff = %d, want the era-calibrated %d", auto.Cutoff(), CalibrateKind(EraJudge))
	}
	autoI := NewRetirer(a, Config{MaxThreads: 1}, &intervalFakeJudge{})
	if autoI.Cutoff() != CalibrateKind(IntervalJudge) {
		t.Fatalf("Cutoff = %d, want the interval-calibrated %d", autoI.Cutoff(), CalibrateKind(IntervalJudge))
	}
}

func TestCalibrateIsCachedAndSane(t *testing.T) {
	for _, kind := range []JudgeKind{EraJudge, IntervalJudge} {
		c1, c2 := CalibrateKind(kind), CalibrateKind(kind)
		if c1 != c2 {
			t.Fatalf("CalibrateKind(%v) not cached: %d then %d", kind, c1, c2)
		}
		if c1 < 2 || c1 > calibrateSizes[len(calibrateSizes)-1]*2 {
			t.Fatalf("CalibrateKind(%v) = %d, outside the probe range", kind, c1)
		}
	}
	if Calibrate() != CalibrateKind(EraJudge) {
		t.Fatal("Calibrate() diverged from CalibrateKind(EraJudge)")
	}
}

// TestRetireRingShrinkOnSettle drives a churn spike (growing the retire
// ring to its highwater), then settles with a trickle of pinned retires:
// after shrinkAfter consecutive under-quarter scans the ring must halve,
// keep halving per settled window down to minRingCap, and never drop an
// entry across any shrink.
func TestRetireRingShrinkOnSettle(t *testing.T) {
	const spike = 2000
	a := testArena(t, 1<<13, 1)
	free := false
	j := &fakeJudge{canFree: func(int, *Snapshot, mem.Handle) bool { return free }}
	r := NewRetirer(a, Config{MaxThreads: 1, CleanupFreq: 1 << 30}, j)

	for i := 0; i < spike; i++ {
		r.Add(0, mustAlloc(a, 0))
	}
	r.Scan(0) // judges all, frees none: the ring is at its churn highwater
	q := &r.threads[0].ring
	spikeCap := len(q.buf)
	if spikeCap < spike {
		t.Fatalf("ring capacity %d after a %d-block spike", spikeCap, spike)
	}

	free = true
	r.Scan(0) // the spike drains
	if r.Unreclaimed() != 0 {
		t.Fatalf("backlog %d after draining scan", r.Unreclaimed())
	}
	if len(q.buf) != spikeCap {
		t.Fatalf("ring shrank after one settled scan (cap %d -> %d); want %d consecutive",
			spikeCap, len(q.buf), shrinkAfter)
	}

	// Settle: one pinned retire per scan keeps occupancy far under a
	// quarter of capacity. Capacity must halve every shrinkAfter scans
	// while every pinned entry stays queued.
	free = false
	var pinned []mem.Handle
	for len(q.buf) > minRingCap {
		capBefore := len(q.buf)
		for i := 0; i < shrinkAfter; i++ {
			blk := mustAlloc(a, 0)
			pinned = append(pinned, blk)
			r.Add(0, blk)
			r.Scan(0)
		}
		if len(q.buf) != capBefore/2 {
			t.Fatalf("ring cap %d after %d settled scans, want %d", len(q.buf), shrinkAfter, capBefore/2)
		}
		if r.Unreclaimed() != len(pinned) {
			t.Fatalf("shrink dropped entries: backlog %d, want %d", r.Unreclaimed(), len(pinned))
		}
	}
	if len(q.buf) != minRingCap {
		t.Fatalf("ring cap %d after full settle, want the %d floor", len(q.buf), minRingCap)
	}

	// Every pinned entry survived the halvings: a final permissive scan
	// frees exactly them.
	free = true
	r.Scan(0)
	if r.Unreclaimed() != 0 {
		t.Fatalf("backlog %d after final scan", r.Unreclaimed())
	}
	for _, blk := range pinned {
		if a.Live(blk) {
			t.Fatalf("block %d lost across a shrink (never freed)", blk)
		}
	}

	// A re-spike must still be absorbed: the shrunk ring grows again.
	free = false
	for i := 0; i < spike; i++ {
		r.Add(0, mustAlloc(a, 0))
	}
	if q.len() != spike {
		t.Fatalf("re-spike lost entries: len %d, want %d", q.len(), spike)
	}
}

// TestRetirerProbe: the tick-sampling hook must agree with the individual
// telemetry reads it aggregates.
func TestRetirerProbe(t *testing.T) {
	a := testArena(t, 1<<10, 2)
	j := &fakeJudge{canFree: func(int, *Snapshot, mem.Handle) bool { return false }}
	r := NewRetirer(a, Config{MaxThreads: 2, CleanupFreq: 4}, j)
	for tid := 0; tid < 2; tid++ {
		for i := 0; i < 10; i++ {
			r.RecordSteps(tid, uint64(i%3)+1)
			r.Retire(tid, mustAlloc(a, tid))
		}
	}
	p := r.Probe()
	if p.Unreclaimed != r.Unreclaimed() {
		t.Fatalf("Probe.Unreclaimed = %d, Unreclaimed() = %d", p.Unreclaimed, r.Unreclaimed())
	}
	if p.Scans != r.Stats() {
		t.Fatalf("Probe.Scans = %+v, Stats() = %+v", p.Scans, r.Stats())
	}
	if p.MaxSteps != r.MaxSteps() || p.P99Steps != r.StepQuantile(0.99) {
		t.Fatalf("Probe steps (%d, %d) disagree with (%d, %d)",
			p.MaxSteps, p.P99Steps, r.MaxSteps(), r.StepQuantile(0.99))
	}
}

// TestRetirerConcurrentChurn storms the runtime under -race: every tid
// churns alloc/retire with step recording while other goroutines sample
// the cross-thread counters, then the merged histograms and stats must be
// consistent.
func TestRetirerConcurrentChurn(t *testing.T) {
	const (
		threads = 4
		rounds  = 2000
	)
	a := testArena(t, 1<<14, threads)
	var gate atomic.Uint64 // blocks with RetireEra <= gate may be freed
	j := &fakeJudge{
		gather: func(tid int, s *Snapshot) { s.SetAux(0, gate.Load()) },
		canFree: func(_ int, s *Snapshot, blk mem.Handle) bool {
			return a.RetireEra(blk) <= s.Aux(0)
		},
	}
	r := NewRetirer(a, Config{MaxThreads: threads, CleanupFreq: 8}, j)

	stop := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() { // concurrent telemetry reader
		defer close(samplerDone)
		for {
			select {
			case <-stop:
				return
			default:
				if r.Unreclaimed() < 0 {
					panic("negative backlog")
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				blk := mustAlloc(a, tid)
				a.SetRetireEra(blk, uint64(i))
				gate.Store(uint64(i))
				r.RecordSteps(tid, uint64(i%5)+1)
				r.Retire(tid, blk)
			}
		}(tid)
	}
	wg.Wait()
	close(stop)
	<-samplerDone

	// Quiescent: drain every ring.
	for tid := 0; tid < threads; tid++ {
		gate.Store(1 << 40)
		r.Scan(tid)
	}
	if got := r.Unreclaimed(); got != 0 {
		t.Fatalf("backlog %d after settling scans", got)
	}
	if r.MaxSteps() != 5 {
		t.Fatalf("MaxSteps = %d, want 5", r.MaxSteps())
	}
	if st := r.Stats(); st.Scans == 0 || st.Blocks == 0 {
		t.Fatalf("no scan telemetry after churn: %+v", st)
	}
	if q := r.StepQuantile(0.99); q == 0 || q > 5 {
		t.Fatalf("p99 steps = %d, want in [1,5]", q)
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

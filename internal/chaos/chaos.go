// Package chaos is the schedule-injection harness: it drives the public
// structures across the reclamation schemes under the hostile schedules
// the paper's robustness argument is about — a reader stalled while
// holding a guard, a writer preempted with its retire ring undrained, an
// oversubscription storm with goroutines ≫ GOMAXPROCS ≫ guards, and
// bursty churn punctuated by stall spikes — and records the per-tick
// telemetry trajectory each scheme produces under them.
//
// The engine's job is to make the paper's Table 1 distinction observable
// and assertable: under a stalled reader, epoch-based reclamation's
// backlog grows without bound for as long as the stall lasts, while the
// hazard-pointer- and era-class schemes cap it (HP at the protected
// handles, the era/interval schemes at the live set when the stall
// began). A preempted writer, by contrast, strands only its own ring in
// every scheme. The root chaos tests assert exactly that matrix from the
// trajectories this package records.
//
// Determinism: the stall scenarios run on a single goroutine that
// round-robins the workers tick by tick, each worker owning an explicit
// Guard and a seeded xorshift stream. Hostility comes from reservation
// state (a pinned epoch or era), not from real parallelism, so the same
// seed reproduces the identical trajectory byte for byte — the property
// that makes the robustness matrix a unit test instead of a flaky stress.
// The oversubscription scenario is the exception: guard parking only
// happens under real contention, so it runs concurrently and its
// trajectory is marked non-deterministic (tests assert park pressure, not
// exact values).
//
// Trajectories serialize as "wfe-chaos/v1" JSON (cmd/wfestress -chaos
// writes them; cmd/wfeadvise reads them) and convert losslessly to the
// advisor package's sample stream.
package chaos

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wfe"
	"wfe/advisor"
	"wfe/internal/quiesce"
)

// Schema identifies the trajectory JSON layout.
const Schema = "wfe-chaos/v1"

// StallKind says what a stalled worker was doing when the scheduler
// stopped running it.
type StallKind int

const (
	// StallReader parks the worker while it holds a live reservation: its
	// guard has begun an operation and protects the hot cell's node. This
	// is the schedule that separates the schemes — the reservation pins
	// EBR's epoch (unbounded backlog) but only a bounded set of blocks
	// for the HP/era/interval schemes.
	StallReader StallKind = iota
	// StallWriter parks the worker between operations, with retired
	// blocks stranded in its undrained retire ring but no reservation
	// held. Every scheme stays bounded under it: the ring holds at most
	// its occupancy at the stall, and nobody else's reclamation waits on
	// the stalled thread.
	StallWriter
)

func (k StallKind) String() string {
	switch k {
	case StallReader:
		return "reader"
	case StallWriter:
		return "writer"
	}
	return fmt.Sprintf("StallKind(%d)", int(k))
}

// A StallSpec stalls one worker for the tick window [From, To).
type StallSpec struct {
	Worker int       `json:"worker"`
	From   int       `json:"from"`
	To     int       `json:"to"`
	Kind   StallKind `json:"kind"`
}

// A Scenario is one schedule the harness can inject, over any scheme.
type Scenario struct {
	Name       string      `json:"name"`
	Seed       uint64      `json:"seed"`
	Ticks      int         `json:"ticks"`
	Workers    int         `json:"workers"`
	OpsPerTick int         `json:"ops_per_tick"` // structure ops per worker per tick
	KeyRange   uint64      `json:"key_range"`    // hashmap key universe (bounds the live set)
	Stalls     []StallSpec `json:"stalls,omitempty"`

	// Goroutines > 0 selects the concurrent oversubscription engine:
	// that many goroutines hammer the structure guardlessly over a
	// deliberately tiny guard pool, so acquisitions park. Stalls are
	// ignored in this mode and the trajectory is not deterministic.
	Goroutines int `json:"goroutines,omitempty"`

	// PutHeavy selects the exhaustion-storm op mix: workers churn the map
	// through the error-returning TryPutGuarded (put-dominated, no
	// reader stalls) and surfaced ErrArenaExhausted results are counted
	// in Summary.AllocFailures instead of panicking the run. Pair it with
	// an undersized Capacity and a lazy CleanupFreq so allocation outruns
	// the scan cadence and the Domain's emergency-reclamation pipeline is
	// the only thing keeping the workload alive.
	PutHeavy bool `json:"put_heavy,omitempty"`

	// Domain tuning. Zero values take the chaos defaults below (not the
	// Domain defaults: chaos wants aggressive scan/era cadence so a
	// short scenario exercises many reclamation cycles).
	MaxGuards   int  `json:"max_guards,omitempty"`
	CleanupFreq int  `json:"cleanup_freq,omitempty"`
	EraFreq     int  `json:"era_freq,omitempty"`
	Capacity    int  `json:"capacity,omitempty"`
	SpillSize   int  `json:"spill_size,omitempty"`
	Debug       bool `json:"debug,omitempty"`
}

// Chaos defaults: scan and era cadence aggressive enough that a ~60-tick
// scenario spans dozens of cleanup scans, an arena comfortably above the
// worst accumulation the canned scenarios produce, and the Debug arena on
// so a reclamation bug fails the run loudly instead of corrupting it.
const (
	defaultTicks       = 60
	defaultWorkers     = 3
	defaultOpsPerTick  = 120
	defaultKeyRange    = 256
	defaultCleanupFreq = 4
	defaultEraFreq     = 8
	defaultCapacity    = 1 << 16
)

func (s Scenario) withDefaults() Scenario {
	if s.Ticks == 0 {
		s.Ticks = defaultTicks
	}
	if s.Workers == 0 {
		s.Workers = defaultWorkers
	}
	if s.OpsPerTick == 0 {
		s.OpsPerTick = defaultOpsPerTick
	}
	if s.KeyRange == 0 {
		s.KeyRange = defaultKeyRange
	}
	if s.MaxGuards == 0 {
		if s.Goroutines > 0 {
			s.MaxGuards = 2
		} else {
			s.MaxGuards = s.Workers
		}
	}
	if s.CleanupFreq == 0 {
		s.CleanupFreq = defaultCleanupFreq
	}
	if s.EraFreq == 0 {
		s.EraFreq = defaultEraFreq
	}
	if s.Capacity == 0 {
		s.Capacity = defaultCapacity
	}
	return s
}

// A TickSample is the Domain's cumulative telemetry at the end of one
// tick, plus whether any injected stall was active during it.
type TickSample struct {
	Tick    int  `json:"tick"`
	Stalled bool `json:"stalled"`
	wfe.TelemetrySample
}

// A Summary is the trajectory's headline numbers, precomputed so matrix
// assertions and the CLI don't re-derive them.
type Summary struct {
	UnreclaimedMax     int    `json:"unreclaimed_max"`
	UnreclaimedMaxTick int    `json:"unreclaimed_max_tick"`
	UnreclaimedFinal   int    `json:"unreclaimed_final"` // after stalls lifted and the domain settled
	Scans              uint64 `json:"scans"`
	ScanBlocks         uint64 `json:"scan_blocks"`
	Parks              uint64 `json:"parks"`
	Deterministic      bool   `json:"deterministic"`
	// Backpressure numbers (omitted from JSON when zero, so trajectories
	// recorded before the emergency pipeline existed stay byte-identical):
	// allocations that entered the Domain's emergency pipeline, the
	// out-of-cadence scans it ran, and the operations that still surfaced
	// ErrArenaExhausted after it (only the Leak baseline, which has no
	// judge to scan with, should ever count failures).
	AllocStalls    uint64 `json:"alloc_stalls,omitempty"`
	EmergencyScans uint64 `json:"emergency_scans,omitempty"`
	AllocFailures  uint64 `json:"alloc_failures,omitempty"`
	// Quiesce is the post-run quiesce.Check verdict: "" if the drained
	// domain settled clean (guards all home, arena census exact, backlog
	// collapsed — not asserted for Leak), else the violation.
	Quiesce string `json:"quiesce,omitempty"`
}

// A Trajectory is one (scenario, scheme) run's recorded telemetry.
type Trajectory struct {
	Schema   string       `json:"schema"`
	Scenario string       `json:"scenario"`
	Scheme   string       `json:"scheme"`
	Seed     uint64       `json:"seed"`
	Ticks    []TickSample `json:"ticks"`
	Summary  Summary      `json:"summary"`
}

// Samples converts the trajectory to the advisor's sample stream.
func (t *Trajectory) Samples() []advisor.Sample {
	out := make([]advisor.Sample, len(t.Ticks))
	for i, ts := range t.Ticks {
		pressure := 0.0
		if ts.Capacity > 0 {
			pressure = float64(ts.InUse) / float64(ts.Capacity)
		}
		out[i] = advisor.Sample{
			Tick:           ts.Tick,
			Unreclaimed:    ts.Unreclaimed,
			ScanScans:      ts.ScanScans,
			ScanBlocks:     ts.ScanBlocks,
			P99Steps:       ts.P99Steps,
			GuardParks:     ts.GuardParks,
			Pressure:       pressure,
			EmergencyScans: ts.EmergencyScans,
		}
	}
	return out
}

// xorshift64 is the harness's deterministic per-worker stream.
type xorshift64 uint64

func (x *xorshift64) next() uint64 {
	v := *x
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = v
	return uint64(v)
}

// Run executes the scenario over the given scheme and returns the
// recorded trajectory. The Domain is created, driven, drained, settled
// and census-checked inside the call.
func Run(kind wfe.SchemeKind, s Scenario) (*Trajectory, error) {
	s = s.withDefaults()
	d, err := wfe.NewDomain[uint64](wfe.Options{
		Scheme:      kind,
		Capacity:    s.Capacity,
		MaxGuards:   s.MaxGuards,
		CleanupFreq: s.CleanupFreq,
		EraFreq:     s.EraFreq,
		SpillSize:   s.SpillSize,
		Debug:       s.Debug,
	})
	if err != nil {
		return nil, fmt.Errorf("chaos %q/%s: %w", s.Name, kind, err)
	}
	traj := &Trajectory{
		Schema:   Schema,
		Scenario: s.Name,
		Scheme:   kind.String(),
		Seed:     s.Seed,
	}
	if s.Goroutines > 0 {
		runOversubscribed(d, s, traj)
	} else {
		runSequential(d, s, traj)
	}
	summarize(d, kind, traj)
	return traj, nil
}

// worker is one deterministic actor: an explicit guard, a seeded stream,
// and its stall state.
type worker struct {
	g       *wfe.Guard[uint64]
	rng     xorshift64
	stalled bool
	kind    StallKind
}

// hotSlot is the guard protection slot the engine uses for the shared hot
// cell; the built-in structures use slots 0..3, so the stalled reader's
// held protection survives any op the worker runs after the stall lifts.
const hotSlot = 7

// runSequential is the deterministic engine: one goroutine round-robins
// the workers, each running OpsPerTick hashmap operations per tick plus a
// hot-cell replacement, with stalls applied at their tick edges.
func runSequential(d *wfe.Domain[uint64], s Scenario, traj *Trajectory) {
	m := wfe.NewHashMap[uint64](d, 64)
	var hot wfe.Atomic[uint64] // the shared cell stalled readers protect

	workers := make([]*worker, s.Workers)
	for i := range workers {
		rng := xorshift64(s.Seed ^ (uint64(i+1) * 0x9e3779b97f4a7c15))
		if rng == 0 {
			rng = 1
		}
		workers[i] = &worker{g: d.Guard(), rng: rng}
	}

	stallsActive := 0
	for tick := 0; tick < s.Ticks; tick++ {
		// Apply the tick's stall edges before anyone runs.
		for _, sp := range s.Stalls {
			if sp.Worker < 0 || sp.Worker >= len(workers) {
				continue
			}
			w := workers[sp.Worker]
			if sp.From == tick && !w.stalled {
				w.stalled, w.kind = true, sp.Kind
				stallsActive++
				if sp.Kind == StallReader {
					// The stall catches the reader mid-operation: its
					// reservation is live and it protects the hot node.
					w.g.Begin()
					w.g.Protect(&hot, hotSlot)
				}
			}
			if sp.To == tick && w.stalled && w.kind == sp.Kind {
				if sp.Kind == StallReader {
					w.g.End()
				}
				w.stalled = false
				stallsActive--
			}
		}
		for wi, w := range workers {
			if w.stalled {
				continue
			}
			// Hot-cell churn: replace the shared node so a stalled
			// reader's protection pins a block other workers retire. The
			// put-heavy storm skips it — it has no reader stalls, and the
			// unconditional Alloc would panic on its undersized arena.
			if !s.PutHeavy && tick%len(workers) == wi {
				old := w.g.Protect(&hot, hotSlot)
				repl := w.g.Alloc(w.rng.next())
				if hot.CompareAndSwap(old, repl) {
					if !old.IsNil() {
						w.g.Retire(old)
					}
				} else {
					w.g.Dealloc(repl)
				}
			}
			for i := 0; i < s.OpsPerTick; i++ {
				key := w.rng.next() % s.KeyRange
				if s.PutHeavy {
					// Put-dominated churn through the backpressure API:
					// every put on a present key allocates a replacement
					// and retires the old node, so allocation pressure
					// tracks the op rate, not the live set.
					switch w.rng.next() % 10 {
					case 0, 1, 2, 3, 4, 5, 6:
						if err := m.TryPutGuarded(w.g, key, w.rng.next()); err != nil {
							traj.Summary.AllocFailures++
						}
					case 7:
						m.DeleteGuarded(w.g, key)
					default:
						m.GetGuarded(w.g, key)
					}
					continue
				}
				switch w.rng.next() % 10 {
				case 0, 1, 2, 3:
					m.InsertGuarded(w.g, key, key)
				case 4, 5, 6, 7:
					m.DeleteGuarded(w.g, key)
				default:
					m.GetGuarded(w.g, key)
				}
			}
		}
		sample := d.Sample()
		traj.Ticks = append(traj.Ticks, TickSample{
			Tick:            tick,
			Stalled:         stallsActive > 0,
			TelemetrySample: sample,
		})
	}
	// Lift any stall still open at the end, then drain the structure and
	// the hot cell so the post-run settle can collapse the backlog.
	for _, w := range workers {
		if w.stalled && w.kind == StallReader {
			w.g.End()
		}
		w.stalled = false
	}
	g := workers[0].g
	for key := uint64(0); key < s.KeyRange; key++ {
		m.DeleteGuarded(g, key)
	}
	if old := g.Protect(&hot, hotSlot); !old.IsNil() && hot.CompareAndSwap(old, wfe.Ref[uint64]{}) {
		g.Retire(old)
	}
	for _, w := range workers {
		w.g.Release()
	}
	traj.Summary.Deterministic = true
}

// runOversubscribed is the storm engine: Goroutines workers hammer the
// map guardlessly over a MaxGuards-sized pool while a hostage goroutine
// periodically pins the whole pool and sits on it — the schedule an
// oversubscribed machine produces when the kernel deschedules guard
// holders — so acquisitions park. The hostage takes the pool before the
// workers are released, so the first burst parks them however the
// scheduler orders the goroutines. The trajectory is sampled at equal
// completed-op thresholds; only its coarse shape (and Parks > 0) is
// reproducible, so it is marked non-deterministic.
func runOversubscribed(d *wfe.Domain[uint64], s Scenario, traj *Trajectory) {
	m := wfe.NewHashMap[uint64](d, 64)
	opsPerG := s.Ticks * s.OpsPerTick / 4
	if opsPerG == 0 {
		opsPerG = 1
	}
	total := uint64(s.Goroutines) * uint64(opsPerG)
	var done atomic.Uint64
	var wg sync.WaitGroup
	release := make(chan struct{}) // the start barrier the hostage opens
	for gi := 0; gi < s.Goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			<-release
			rng := xorshift64(s.Seed ^ (uint64(gi+1) * 0x9e3779b97f4a7c15))
			if rng == 0 {
				rng = 1
			}
			for i := 0; i < opsPerG; i++ {
				key := rng.next() % s.KeyRange
				switch rng.next() % 10 {
				case 0, 1, 2, 3:
					m.Insert(key, key)
				case 4, 5, 6, 7:
					m.Delete(key)
				default:
					m.Get(key)
				}
				done.Add(1)
				// Yield regularly so the storm interleaves even when
				// GOMAXPROCS is small — a worker that ran its whole batch
				// in one scheduler quantum would never contend for guards.
				if i%32 == 0 {
					runtime.Gosched()
				}
			}
		}(gi)
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	// The hostage loop models descheduled guard holders: pin every guard,
	// hold them across a scheduler quantum, release. Workers that hit the
	// empty pool park (the pool counts each park), exactly the pressure
	// the advisor's oversubscription signal keys on. The first burst runs
	// before the workers start, so the storm cannot finish ahead of it.
	const hostageBursts = 8
	var hostage sync.WaitGroup
	hostage.Add(1)
	go func() {
		defer hostage.Done()
		for k := 0; k < hostageBursts; k++ {
			threshold := total * uint64(k) / hostageBursts
			for done.Load() < threshold {
				select {
				case <-finished:
					return
				default:
					runtime.Gosched()
				}
			}
			gs := make([]*wfe.Guard[uint64], 0, s.MaxGuards)
			for i := 0; i < s.MaxGuards; i++ {
				gs = append(gs, d.Pin())
			}
			if k == 0 {
				close(release)
			}
			// Sit on the whole pool until the storm visibly parks on it,
			// the storm ends, or a yield budget runs out — parked workers
			// must not be able to deadlock the run by never advancing done.
			base := d.Sample().GuardParks
			want := base + uint64(s.Goroutines)/4 + 1
		hold:
			for spin := 0; spin < 1<<14 && d.Sample().GuardParks < want; spin++ {
				select {
				case <-finished:
					break hold
				default:
					runtime.Gosched()
				}
			}
			for _, g := range gs {
				d.Unpin(g)
			}
		}
	}()
	step := total / uint64(s.Ticks)
	if step == 0 {
		step = 1
	}
	tick := 0
	for running := true; running && tick < s.Ticks; {
		select {
		case <-finished:
			running = false
		case <-time.After(200 * time.Microsecond):
		}
		for tick < s.Ticks && (done.Load() >= uint64(tick+1)*step || !running) {
			traj.Ticks = append(traj.Ticks, TickSample{
				Tick:            tick,
				TelemetrySample: d.Sample(),
			})
			tick++
		}
	}
	<-finished
	hostage.Wait()
	// Drain so the settle can collapse the backlog.
	for key := uint64(0); key < s.KeyRange; key++ {
		m.Delete(key)
	}
	traj.Summary.Deterministic = false
}

// summarize settles the drained domain, runs the shared quiesce census
// check, and folds the trajectory's headline numbers into the summary.
func summarize(d *wfe.Domain[uint64], kind wfe.SchemeKind, traj *Trajectory) {
	quiesce.Settle(d)
	if err := quiesce.Check(d, kind != wfe.Leak); err != nil {
		traj.Summary.Quiesce = err.Error()
	}
	traj.Summary.UnreclaimedFinal = d.Unreclaimed()
	for _, ts := range traj.Ticks {
		if ts.Unreclaimed > traj.Summary.UnreclaimedMax {
			traj.Summary.UnreclaimedMax = ts.Unreclaimed
			traj.Summary.UnreclaimedMaxTick = ts.Tick
		}
	}
	if n := len(traj.Ticks); n > 0 {
		last := traj.Ticks[n-1]
		traj.Summary.Scans = last.ScanScans
		traj.Summary.ScanBlocks = last.ScanBlocks
		traj.Summary.Parks = last.GuardParks
	}
	pr := d.Pressure()
	traj.Summary.AllocStalls = pr.AllocStalls
	traj.Summary.EmergencyScans = pr.EmergencyScans
}

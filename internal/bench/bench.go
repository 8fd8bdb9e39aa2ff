// Package bench is the paper's evaluation harness (§5): it drives the
// public structures over every reclamation scheme, sweeping thread
// counts, and reports the two series every figure plots — throughput
// (Mops/s) and the number of unreclaimed objects — plus the ablations
// cmd/wfebench exposes.
package bench

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wfe"
)

// Workload is an operation mix in percent (summing to 100).
type Workload struct {
	Name                           string
	Insert, Delete, GetPct, PutPct int
}

// The paper's two mixes (§5).
var (
	WriteHeavy = Workload{Name: "50i/50d", Insert: 50, Delete: 50}
	ReadMostly = Workload{Name: "90g/10p", GetPct: 90, PutPct: 10}
)

// Experiment describes one paper figure (one data structure × workload).
type Experiment struct {
	ID       string // "5a", "6", ...
	Title    string
	DS       string // structure name (see Setup)
	Workload Workload
	Schemes  []string
}

var allSchemes = []string{"WFE", "HE", "HP", "EBR", "2GEIBR", "Leak"}

// Experiments indexes every figure in the paper's evaluation. Figures with
// two panels (throughput / unreclaimed) are one experiment here: Run
// reports both metrics.
var Experiments = []Experiment{
	{ID: "5a", Title: "KP queue, 50% insert / 50% delete", DS: "wfqueue", Workload: WriteHeavy, Schemes: allSchemes},
	{ID: "5c", Title: "CRTurn queue, 50% insert / 50% delete", DS: "turnqueue", Workload: WriteHeavy, Schemes: allSchemes},
	{ID: "6", Title: "Linked list, 50% insert / 50% delete", DS: "list", Workload: WriteHeavy, Schemes: allSchemes},
	{ID: "7", Title: "Hash map, 50% insert / 50% delete", DS: "hashmap", Workload: WriteHeavy, Schemes: allSchemes},
	{ID: "8", Title: "Natarajan BST, 50% insert / 50% delete", DS: "tree", Workload: WriteHeavy, Schemes: allSchemes},
	{ID: "9", Title: "Linked list, 90% get / 10% put", DS: "list", Workload: ReadMostly, Schemes: allSchemes},
	{ID: "10", Title: "Hash map, 90% get / 10% put", DS: "hashmap", Workload: ReadMostly, Schemes: allSchemes},
	{ID: "11", Title: "Natarajan BST, 90% get / 10% put", DS: "tree", Workload: ReadMostly, Schemes: allSchemes},
}

// FindExperiment resolves a figure id ("5a" and "5b" map to the same
// experiment, as do "5c"/"5d" — the letters select the panel).
func FindExperiment(id string) (Experiment, error) {
	switch id {
	case "5b":
		id = "5a"
	case "5d":
		id = "5c"
	}
	for _, e := range Experiments {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown figure %q", id)
}

// ParseScheme maps a scheme legend name to its kind, accepting the
// forced-slow-path variants ("WFE-slow", "WFE-IBR-slow") the paper's §5
// stress validation runs: those report forceSlow for Options.ForceSlowPath.
func ParseScheme(name string) (kind wfe.SchemeKind, forceSlow bool, err error) {
	base, forceSlow := strings.CutSuffix(name, "-slow")
	kind, err = wfe.ParseScheme(base)
	return kind, forceSlow, err
}

// Options are the sweep parameters, defaulting to the paper's values with a
// shorter duration (the -paper flag of cmd/wfebench restores 10s × 5).
type Options struct {
	Threads     []int         // thread counts to sweep
	Duration    time.Duration // per measurement
	Repeat      int           // repetitions (best Mops reported, like the paper's max-of-5)
	Prefill     int           // initial elements (paper: 50000)
	KeyRange    uint64        // keys drawn uniformly from [0, KeyRange) (paper: 100000)
	EraFreq     int           // ν (paper: 150)
	CleanupFreq int           // retire scan frequency (paper: 30)
	MaxAttempts int           // WFE fast-path attempts (paper: 16)
	Capacity    int           // arena slots; 0 sizes automatically
	// StallThreads makes the first N workers stall inside an operation
	// (a pinned guard holding one protection) for the whole run — the
	// preempted-reader scenario of ablation A4.
	StallThreads int
	// Pin wires each worker to an OS thread (runtime.LockOSThread),
	// approximating the paper's pinned-thread methodology.
	Pin bool
	// LinearScan pins every scheme's cleanup to the pre-overhaul O(R×G)
	// linear reservation sweep — the reference arm of the scan ablation.
	LinearScan bool
	// Observe, when non-nil, is called at the start of every measured run
	// with a label ("figure/scheme/tN") and a live telemetry closure that
	// stays valid for the run and afterwards (the counters freeze when the
	// run ends). cmd/wfebench's -metrics flag registers each closure with
	// a metrics.Registry so a scraper watches the sweep point by point.
	Observe func(label string, tel func() wfe.Telemetry)
}

// Defaults fills unset fields.
func (o Options) Defaults() Options {
	if len(o.Threads) == 0 {
		for t := 1; t <= runtime.GOMAXPROCS(0); t *= 2 {
			o.Threads = append(o.Threads, t)
		}
	}
	if o.Duration == 0 {
		o.Duration = 500 * time.Millisecond
	}
	if o.Repeat == 0 {
		o.Repeat = 1
	}
	if o.Prefill == 0 {
		o.Prefill = 50000
	}
	if o.KeyRange == 0 {
		o.KeyRange = 100000
	}
	if o.EraFreq == 0 {
		o.EraFreq = 150
	}
	if o.CleanupFreq == 0 {
		o.CleanupFreq = 30
	}
	if o.MaxAttempts == 0 {
		o.MaxAttempts = 16
	}
	return o
}

// Result is one measured point (one scheme at one thread count). The
// json tags name the fields in the BENCH_*.json trajectory artifact.
type Result struct {
	Figure         string  `json:"figure"`
	DS             string  `json:"ds"`
	Workload       string  `json:"workload"`
	Scheme         string  `json:"scheme"`
	Threads        int     `json:"threads"`
	Mops           float64 `json:"mops"`
	Ops            uint64  `json:"ops"`              // total operations completed
	Unreclaimed    float64 `json:"unreclaimed_mean"` // mean sampled retired-not-freed blocks
	UnreclaimedMax int     `json:"unreclaimed_max"`  // highwater of the same samples
	SlowPaths      uint64  `json:"slow_paths"`       // WFE/WFE-IBR only: slow-path entries during measurement
	MaxSteps       uint64  `json:"max_steps"`        // worst GetProtected step count (every protecting scheme)
	P99Steps       uint64  `json:"p99_steps"`        // p99 GetProtected step count (every protecting scheme)
	ScanScans      uint64  `json:"scan_scans"`       // cleanup scans run (all schemes, via the shared retire runtime)
	ScanBlocks     uint64  `json:"scan_blocks"`      // retired blocks those scans examined
	ScanNanos      uint64  `json:"scan_nanos"`       // total nanoseconds spent in cleanup scans
	Exhausted      bool    `json:"exhausted"`        // arena filled up mid-run (Leak with long durations)
	// Telemetry is the Domain's census at the end of the run, for the
	// guard-runtime counters the text and CSV reports print.
	Telemetry wfe.Telemetry `json:"-"`
}

// ScanNsPerBlock is the mean cleanup cost per examined retired block, the
// scan ablation's primary metric.
func (r Result) ScanNsPerBlock() float64 {
	if r.ScanBlocks == 0 {
		return 0
	}
	return float64(r.ScanNanos) / float64(r.ScanBlocks)
}

// IsQueue reports whether the structure only supports insert/delete.
func IsQueue(name string) bool { return name == "wfqueue" || name == "turnqueue" }

// MaxTurnGuards is the CRTurn claim word's tid capacity: TurnQueue domains
// must keep MaxGuards below 255, so sweeps clamp their goroutine counts.
const MaxTurnGuards = 254

// Run sweeps one experiment and returns a result per scheme × thread
// count. Each worker pins one guard for the whole run and drives the
// structure through its Guarded methods, as the paper's threads keep one
// fixed tid.
func Run(exp Experiment, opt Options) []Result { return run(exp, opt, false) }

// run is the one sweep loop. guardless drives every operation through
// the structures' plain methods instead, so each one leases a guard.
func run(exp Experiment, opt Options, guardless bool) []Result {
	opt = opt.Defaults()
	var results []Result
	clamped := false
	for _, threads := range opt.Threads {
		if exp.DS == "turnqueue" && threads > MaxTurnGuards {
			// The claim word holds at most 254 tids: measure the clamped
			// point once, not once per excessive thread count.
			if clamped {
				continue
			}
			threads, clamped = MaxTurnGuards, true
		}
		for _, scheme := range exp.Schemes {
			best := Result{}
			for rep := 0; rep < opt.Repeat; rep++ {
				r := runPoint(exp, scheme, threads, guardless, opt)
				if r.Mops > best.Mops || rep == 0 {
					best = r
				}
			}
			results = append(results, best)
		}
	}
	return results
}

// prefillKeys draws distinct random keys (the paper prefills 50K elements
// from the key range).
func prefillKeys(n int, keyRange uint64, rng *rand.Rand) []uint64 {
	if uint64(n) > keyRange {
		n = int(keyRange)
	}
	seen := make(map[uint64]struct{}, n)
	keys := make([]uint64, 0, n)
	for len(keys) < n {
		k := uint64(rng.Int63n(int64(keyRange)))
		if _, dup := seen[k]; !dup {
			seen[k] = struct{}{}
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// arenaCapacity sizes a run's arena: the live set (doubled, since the
// wait-free queues box every value in a second block) plus the retired
// backlog's headroom. The flat headroom term absorbs the backlog of the
// epoch- and interval-based schemes, which can spike past 100K blocks when
// a worker is descheduled mid-epoch on a loaded machine — undersizing here
// shows up as flaky Exhausted results, not as a measurement. The leak
// baseline burns one slot per insert for the whole run; it gets the
// largest arena that still fits comfortably in memory, and Exhausted flags
// its truncated runs.
func arenaCapacity(kind wfe.SchemeKind, opt Options, threads int) int {
	switch {
	case opt.Capacity != 0:
		return opt.Capacity
	case kind == wfe.Leak:
		return 1 << 22
	}
	return 8*opt.Prefill + threads*4096 + 1<<18
}

// newDomain builds the Domain one measured point runs on: the scheme
// (forced-slow variants included), threads guards, and the sweep's tuning.
func newDomain(scheme string, threads int, opt Options) (*wfe.Domain[uint64], wfe.SchemeKind) {
	kind, forceSlow, err := ParseScheme(scheme)
	if err != nil {
		panic(err)
	}
	sortCutoff := 0 // calibrated per host
	if opt.LinearScan {
		// Every gathered snapshot sits below the cutoff, so each scan
		// takes the linear sweep.
		sortCutoff = math.MaxInt
	}
	d, err := wfe.NewDomain[uint64](wfe.Options{
		Scheme:        kind,
		Capacity:      arenaCapacity(kind, opt, threads),
		MaxGuards:     threads,
		EraFreq:       opt.EraFreq,
		CleanupFreq:   opt.CleanupFreq,
		MaxAttempts:   opt.MaxAttempts,
		SortCutoff:    sortCutoff,
		ForceSlowPath: forceSlow,
	})
	if err != nil {
		panic(err)
	}
	return d, kind
}

func runPoint(exp Experiment, scheme string, threads int, guardless bool, opt Options) Result {
	d, kind := newDomain(scheme, threads, opt)
	if opt.Observe != nil {
		opt.Observe(fmt.Sprintf("%s/%s/t%d", exp.ID, scheme, threads), d.Telemetry)
	}
	s := Setup(exp.DS, d, opt)

	var (
		stop      atomic.Bool
		exhausted atomic.Bool
		opsByW    = make([]uint64, threads)
	)
	// Prefill runs cleanup scans against a nearly empty reservation set;
	// baseline them away so the scan telemetry describes the measured
	// window only (the step quantiles stay whole-run: a max cannot be
	// baselined and prefill's uncontended reads all take one step).
	base := d.Telemetry()

	// Unreclaimed sampler (the paper's second panel).
	var samples []int
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for !stop.Load() {
			<-tick.C
			samples = append(samples, d.Unreclaimed())
		}
	}()

	// A stalled reader pins one protection of this block for the whole run
	// (ablation A4).
	var stallRoot wfe.Atomic[uint64]
	if opt.StallThreads > 0 {
		g := d.Pin()
		stallRoot.Store(g.Alloc(0))
		d.Unpin(g)
	}

	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if opt.Pin {
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
			}
			ops := uint64(0)
			// Record the count even on the panic path below, so Exhausted
			// rows are not undercounted by the dying worker's share.
			defer func() { opsByW[w] = ops }()
			defer func() {
				if r := recover(); r != nil {
					// Only the leak baseline filling its fixed arena is a
					// benign early end; any other panic is a real bug and
					// must crash the sweep, not be masked as an Exhausted
					// capacity artifact.
					if !LeakExhausted(r, kind) {
						panic(r)
					}
					exhausted.Store(true)
					stop.Store(true)
				}
			}()
			stalled := w < opt.StallThreads
			// pprof labels tag every profile sample a -metrics scrape
			// collects with which sweep point it belongs to.
			phase := "measure"
			if stalled {
				phase = "stalled"
			}
			pprof.Do(context.Background(), pprof.Labels(
				"scheme", scheme, "structure", exp.DS, "phase", phase,
			), func(context.Context) {
				var g *wfe.Guard[uint64]
				if !guardless || stalled {
					g = d.Pin()
					defer d.Unpin(g)
				}
				if stalled {
					g.Begin()
					g.Protect(&stallRoot, 0)
					for !stop.Load() {
						time.Sleep(time.Millisecond)
						if time.Since(start) > opt.Duration {
							stop.Store(true)
						}
					}
					return
				}
				r := rand.New(rand.NewSource(int64(w)*7919 + 1))
				mix := exp.Workload
				for !stop.Load() {
					key := uint64(r.Int63n(int64(opt.KeyRange)))
					pick := r.Intn(100)
					switch {
					case pick < mix.Insert:
						s.Insert(g, key)
					case pick < mix.Insert+mix.Delete:
						s.Delete(g, key)
					case pick < mix.Insert+mix.Delete+mix.GetPct:
						s.Get(g, key)
					default:
						s.Put(g, key)
					}
					ops++
					if ops&63 == 0 && time.Since(start) > opt.Duration {
						stop.Store(true)
					}
				}
			})
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	stop.Store(true)
	<-samplerDone
	d.FlushGuardCache()

	var totalOps uint64
	for _, n := range opsByW {
		totalOps += n
	}
	unreclaimed := float64(d.Unreclaimed())
	unreclaimedMax := d.Unreclaimed()
	if len(samples) > 0 {
		sum, peak := 0, 0
		for _, n := range samples {
			sum += n
			peak = max(peak, n)
		}
		unreclaimed, unreclaimedMax = float64(sum)/float64(len(samples)), peak
	}

	// The workers are joined: the owner-written step histograms and scan
	// counters are safe to sample now.
	tel := d.Telemetry()
	return Result{
		Figure:         exp.ID,
		DS:             exp.DS,
		Workload:       exp.Workload.Name,
		Scheme:         scheme,
		Threads:        threads,
		Mops:           float64(totalOps) / elapsed.Seconds() / 1e6,
		Ops:            totalOps,
		Unreclaimed:    unreclaimed,
		UnreclaimedMax: unreclaimedMax,
		SlowPaths:      tel.SlowPaths - base.SlowPaths,
		MaxSteps:       tel.MaxSteps,
		P99Steps:       tel.P99Steps,
		ScanScans:      tel.ScanScans - base.ScanScans,
		ScanBlocks:     tel.ScanBlocks - base.ScanBlocks,
		ScanNanos:      tel.ScanNanos - base.ScanNanos,
		Exhausted:      exhausted.Load(),
		Telemetry:      tel,
	}
}

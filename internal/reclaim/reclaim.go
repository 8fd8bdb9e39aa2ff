// Package reclaim defines the common safe-memory-reclamation (SMR) interface
// every scheme in this repository implements and every data structure is
// written against, mirroring the Hazard-Pointers-compatible API the paper
// standardises on (get_protected / retire / clear / alloc_block) plus the
// per-operation Begin hook that epoch- and interval-based schemes need.
//
// Threads are identified by small dense ids (tid in 0..MaxThreads-1)
// assigned by the caller; every per-thread method must be called with a
// stable tid, from one goroutine at a time per tid.
package reclaim

import (
	"math"
	"sync/atomic"

	"wfe/internal/mem"
	"wfe/internal/trace"
)

// Scheme is a universal memory reclamation scheme.
type Scheme interface {
	// Name identifies the scheme in benchmark output ("WFE", "HE", ...).
	Name() string

	// Begin marks the start of a data-structure operation. Epoch-based
	// schemes announce activity here; pointer- and era-based schemes no-op.
	Begin(tid int)

	// GetProtected safely reads the link value stored at src and protects
	// the block it refers to until Clear (or until the reservation at the
	// same index is overwritten by a later GetProtected).
	//
	// index selects one of the thread's MaxHEs reservation slots. parent is
	// the block containing src (0 when src is a structure root); only WFE
	// uses it, to keep the parent alive for helpers (paper §3.4).
	GetProtected(tid int, src *atomic.Uint64, index int, parent mem.Handle) uint64

	// Retire marks a block, already unlinked from the structure, for
	// deletion once no in-flight reader can hold it.
	Retire(tid int, h mem.Handle)

	// Clear resets all reservations made by the thread (paper: clear()).
	// Data structures call it at the end of every operation.
	Clear(tid int)

	// BeginBatch opens one protection span intended to cover a whole burst
	// of operations, and reports whether that single span suffices.
	// Era-, epoch- and interval-clocked schemes (EBR, HE, WFE, 2GEIBR,
	// WFE-IBR) return true: one announced epoch or reservation interval
	// covers every block protected inside the span, so the batch runner may
	// keep it open across items. Identity schemes (HP) return false — a
	// hazard slot protects exactly one node, so the runner must still Clear
	// between items to rotate hazard slots per node, exactly as in the
	// per-op path. Encoding the distinction here keeps call sites free of
	// per-scheme special cases.
	BeginBatch(tid int) bool

	// EndBatch closes the span opened by BeginBatch, resetting every
	// reservation the batch made (the batch-wide Clear).
	EndBatch(tid int)

	// RetireBatch retires every block of an operation burst at once: each
	// block is era-stamped and queued like Retire would, but the
	// scan-gating retirement counter advances once for the whole batch, so
	// the cleanup cadence stays amortized across the burst instead of
	// firing mid-batch. Stamping every block with the clock value read at
	// submission is safe: the clock is monotone, so that value is ≥ the
	// clock at each block's unlink and the stamp only over-approximates
	// the block's lifespan.
	RetireBatch(tid int, blks []mem.Handle)

	// Alloc allocates a block and stamps its allocation era
	// (paper: alloc_block()). It panics when the arena is exhausted;
	// callers that can degrade gracefully use TryAlloc.
	Alloc(tid int) mem.Handle

	// TryAlloc is Alloc with backpressure: it returns (0, false) instead
	// of panicking when the arena is exhausted, after running the same
	// era-clock bookkeeping Alloc would. The Domain's emergency
	// reclamation pipeline sits on top of it.
	TryAlloc(tid int) (mem.Handle, bool)

	// Unreclaimed reports the number of retired-but-not-yet-freed blocks,
	// the paper's reclamation-speed metric. The snapshot may be approximate
	// under concurrency.
	Unreclaimed() int

	// Arena exposes the underlying block arena.
	Arena() *mem.Arena

	// Retirer exposes the scheme's shared retire-side runtime — the one
	// path through which the Domain and harness layers read the uniform
	// retire/cleanup/step telemetry every scheme now reports.
	Retirer() *Retirer
}

// ClockAdvancer is implemented by the era/epoch-clocked schemes (WFE, HE,
// EBR, 2GEIBR, WFE-IBR): AdvanceClock ticks the global clock out of its
// allocation cadence. Emergency reclamation uses it so a scan triggered by
// arena exhaustion judges retired blocks against a fresher clock than the
// one the stalled allocation path last advanced; the pointer-identity
// schemes (HP) and the leak baseline have no clock and do not implement it.
type ClockAdvancer interface {
	AdvanceClock(tid int)
}

// Config carries the tuning parameters shared by the schemes, with the
// paper's evaluation defaults (§5).
type Config struct {
	// MaxThreads bounds the number of participating threads.
	MaxThreads int
	// MaxHEs is the number of reservations per thread (paper: max_hes).
	MaxHEs int
	// EraFreq is ν: the global era/epoch is incremented once per EraFreq
	// allocations per thread.
	EraFreq int
	// CleanupFreq is how many retirements pass between retire-list scans.
	CleanupFreq int
	// MaxAttempts bounds WFE's fast path before it requests helping.
	MaxAttempts int
	// ForceSlowPath makes WFE take the slow path on every GetProtected,
	// the stress configuration the paper validates with (§5).
	ForceSlowPath bool
	// LinearScan forces every cleanup scan back to the pre-overhaul
	// O(R×G) per-block linear reservation sweep instead of the
	// sorted-snapshot binary search (R retired blocks against G gathered
	// reservations). It exists for the scan ablation (cmd/wfebench
	// -ablation scan) and as the oracle configuration of the sorted-scan
	// property tests; production configurations leave it false.
	LinearScan bool
	// SortCutoff is the gathered-reservation count below which a cleanup
	// scan keeps the linear sweep even in sorted-scan mode (sorting a tiny
	// snapshot costs more than sweeping it). Zero selects the host
	// crossover Calibrate measures once per process; the two tests are
	// property-tested equivalent, so the value is purely a cost choice.
	SortCutoff int
	// InitialEra, when above a scheme's natural starting value, seeds the
	// global era/epoch clock. Live scheme switching depends on it: blocks
	// that survive a switch keep allocation-era stamps from the previous
	// scheme's clock, and a fresh clock restarting below them would judge
	// an inverted [alloc, retire] lifespan as empty — and free a block a
	// current reader still protects. Seeding the clock at (or above) the
	// old clock's final value keeps every stale stamp ≤ every new era, so
	// stale lifespans only over-approximate. Zero means the scheme default.
	InitialEra uint64
	// Tracer, when non-nil, receives reclamation lifecycle events
	// (retire, scan begin/end, era advances). A nil or disabled tracer
	// costs one branch per event site.
	Tracer *trace.Tracer
}

// Defaults fills unset fields with the paper's evaluation parameters.
//
// Invariant: the zero-value defaults below are the §5 methodology values —
// max_hes = 8 reservations, ν = 150 allocations per era increment, a
// retire-list scan every 30 retirements, and 16 fast-path attempts before
// WFE requests helping. Benchmarks that reproduce paper figures rely on
// these exact numbers; change them only together with the harness and the
// README's figure documentation.
func (c Config) Defaults() Config {
	if c.MaxThreads == 0 {
		c.MaxThreads = 8
	}
	if c.MaxHEs == 0 {
		c.MaxHEs = 8
	}
	if c.EraFreq == 0 {
		c.EraFreq = 150
	}
	if c.CleanupFreq == 0 {
		c.CleanupFreq = 30
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 16
	}
	return c
}

// ReservedInRange reports whether any era in the sorted snapshot lands in
// the closed lifespan [lo, hi] — the sorted-scan membership kernel of the
// era-based schemes (HE, WFE). Sorting the gathered reservation snapshot
// once and binary-searching it per retired block turns cleanup from
// O(R×G) into O((R+G)·log G); sorting changes nothing about the
// snapshot's contents, so the schemes' conservativeness arguments carry
// over unchanged.
func ReservedInRange(sorted []uint64, lo, hi uint64) bool {
	i := searchGE(sorted, lo)
	return i < len(sorted) && sorted[i] <= hi
}

// searchGE returns the index of the first element ≥ v in the sorted
// slice (len(sorted) if none). It is sort.Search specialised to a flat
// uint64 compare: cleanup runs one or two of these per retired block, so
// the generic version's closure-call per probe is worth removing.
func searchGE(sorted []uint64, v uint64) int {
	i, j := 0, len(sorted)
	for i < j {
		m := int(uint(i+j) >> 1)
		if sorted[m] < v {
			i = m + 1
		} else {
			j = m
		}
	}
	return i
}

// searchGT returns the index of the first element > v in the sorted
// slice (len(sorted) if none).
func searchGT(sorted []uint64, v uint64) int {
	i, j := 0, len(sorted)
	for i < j {
		m := int(uint(i+j) >> 1)
		if sorted[m] <= v {
			i = m + 1
		} else {
			j = m
		}
	}
	return i
}

// IntervalsOverlap reports whether any of the gathered reservation
// intervals overlaps the closed lifespan [birth, retire] — the
// sorted-scan kernel of the interval-based schemes (2GEIBR, WFE-IBR). It
// takes the intervals' lower and upper endpoints sorted independently;
// the sorting loses the lower/upper pairing, which the counting argument
// never needs: a well-formed interval (lower ≤ upper) is disjoint from
// [birth, retire] iff it ends before birth or starts after retire, those
// two sets cannot intersect, and every other interval overlaps. So
// overlap ⇔ #(upper < birth) + #(lower > retire) < n, two binary
// searches per retired block.
func IntervalsOverlap(los, his []uint64, birth, retire uint64) bool {
	before := searchGE(his, birth)
	after := len(los) - searchGT(los, retire)
	return before+after < len(los)
}

// StepHistBuckets is the step-count histogram width: one bucket per
// GetProtected iteration count, the last bucket collecting every longer
// call.
const StepHistBuckets = 64

// StepHist is a single-writer histogram of per-call GetProtected step
// counts, the distribution behind the paper's bounded-steps claim (the
// Max worst case is its tail, the BENCH_*.json p99 its body). Each thread
// records into its own padded copy; counts are published with atomic
// stores so trajectory samplers (Retirer.Probe, Domain.Telemetry) can Merge
// a live histogram concurrently and read an approximate-but-race-free
// snapshot. Exact totals still require quiescence.
type StepHist struct {
	buckets [StepHistBuckets]uint64
	// max is the exact worst step count recorded, which the clamped top
	// bucket cannot preserve.
	max uint64
}

// Record counts one GetProtected call that took steps iterations.
// Owner-thread only.
func (h *StepHist) Record(steps uint64) {
	if steps > atomic.LoadUint64(&h.max) {
		atomic.StoreUint64(&h.max, steps)
	}
	if steps >= StepHistBuckets {
		steps = StepHistBuckets - 1
	}
	atomic.StoreUint64(&h.buckets[steps], atomic.LoadUint64(&h.buckets[steps])+1)
}

// Max returns the worst step count recorded (0 when nothing was).
func (h *StepHist) Max() uint64 { return atomic.LoadUint64(&h.max) }

// Merge accumulates other's counts into h. other may be a live
// owner-written histogram; h must be private to the caller.
func (h *StepHist) Merge(other *StepHist) {
	for i := range other.buckets {
		h.buckets[i] += atomic.LoadUint64(&other.buckets[i])
	}
	if m := atomic.LoadUint64(&other.max); m > h.max {
		h.max = m
	}
}

// Quantile returns the smallest step count s such that at least a q
// fraction of the recorded calls took ≤ s steps (Quantile(0.99) is the
// p99 step count). It returns 0 when nothing was recorded; the top
// bucket reads as "StepHistBuckets-1 or more".
func (h *StepHist) Quantile(q float64) uint64 {
	var total uint64
	for _, v := range h.buckets {
		total += v
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, v := range h.buckets {
		cum += v
		if cum >= rank {
			return uint64(i)
		}
	}
	return StepHistBuckets - 1
}

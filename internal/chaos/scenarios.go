package chaos

import (
	"fmt"

	"wfe"
	"wfe/advisor"
)

// A Canned scenario bundles a Scenario with the assertions the robustness
// matrix makes about it: the per-scheme backlog ceiling it must respect
// (0 = expected unbounded — the scheme is allowed, indeed expected, to
// blow past every bounded scheme's ceiling), and the scheme the advisor
// must recommend when shown the scenario's EBR trajectory (the incumbent
// cheap scheme an operator would be running when deciding whether to
// escalate). WantAdvice "" pins nothing.
type Canned struct {
	Scenario
	Ceiling    func(kind wfe.SchemeKind) int
	WantAdvice string
	// UnboundedFloor is the backlog every scheme the Ceiling table exempts
	// (Leak always; EBR under a stalled reader) must EXCEED — the matrix
	// asserts the distinction from both sides, so a scenario too gentle to
	// expose EBR's unboundedness fails the test rather than silently
	// proving nothing.
	UnboundedFloor int
	// WantPressure marks an exhaustion scenario: the matrix additionally
	// asserts that every judged scheme entered the emergency-reclamation
	// pipeline (Summary.EmergencyScans > 0) and resolved every stall
	// without surfacing an error (Summary.AllocFailures == 0), while the
	// judge-less Leak baseline — which the pipeline cannot help — recorded
	// failures instead of panicking.
	WantPressure bool
}

// Verdict judges one scheme's trajectory of the scenario against the
// robustness matrix (quiesce, Ceiling, UnboundedFloor, WantAdvice,
// WantPressure) and returns every violation, none when it holds. The
// matrix test and wfestress -chaos both judge through it.
func (c Canned) Verdict(kind wfe.SchemeKind, tr *Trajectory) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	sum := tr.Summary
	if sum.Quiesce != "" {
		fail("domain did not settle clean after the schedule: %s", sum.Quiesce)
	}
	switch ceiling := c.Ceiling(kind); {
	case ceiling > 0:
		if sum.UnreclaimedMax > ceiling {
			fail("backlog highwater %d (tick %d) exceeds the bounded ceiling %d",
				sum.UnreclaimedMax, sum.UnreclaimedMaxTick, ceiling)
		}
	case kind == wfe.EBR || (kind == wfe.Leak && sum.Deterministic):
		// The exempt schemes must actually exhibit the growth the
		// exemption predicts, or the scenario is too gentle to prove
		// anything.
		if sum.UnreclaimedMax <= c.UnboundedFloor {
			fail("expected unbounded growth past %d, saw highwater %d — scenario too gentle",
				c.UnboundedFloor, sum.UnreclaimedMax)
		}
	}
	if kind == wfe.EBR && c.WantAdvice != "" {
		if rec := advisor.Advise(tr.Samples()); rec.Scheme != c.WantAdvice {
			fail("advisor on the EBR trajectory recommended %q, want %q (profile %+v)",
				rec.Scheme, c.WantAdvice, rec.Profile)
		}
	}
	if c.WantPressure {
		if kind == wfe.Leak {
			// The pipeline cannot help the judge-less baseline:
			// exhaustion must surface as errors, not panics.
			if sum.AllocFailures == 0 {
				fail("expected surfaced alloc failures on the undersized arena, saw none")
			}
		} else {
			if sum.EmergencyScans == 0 {
				fail("scenario never entered the emergency pipeline — arena not undersized enough")
			}
			if sum.AllocFailures != 0 {
				fail("%d allocation(s) surfaced ErrArenaExhausted despite emergency reclamation", sum.AllocFailures)
			}
		}
	}
	return bad
}

// Backlog ceilings, from the schemes' bounds rather than measurement:
//
//   - HP protects at most MaxGuards×MaxSlots individual handles, so its
//     backlog is scan lag plus a handful of pinned blocks: ceilingHP.
//   - The era/interval schemes pin the blocks live when the stall began —
//     at most KeyRange map nodes plus the hot cell — plus scan lag:
//     ceilingEra.
//   - EBR under a stalled reader accumulates every retire for the whole
//     stall window; the canned stall windows retire several times
//     ceilingEra, so "exceeds ceilingEra" is a robust unbounded signature.
//
// Scan lag at the canned cadence (CleanupFreq 4, rings per tid) is tens
// of blocks; the ceilings leave it an order of magnitude of headroom
// without approaching EBR's stall accumulation.
const (
	ceilingHP  = 256
	ceilingEra = 768
)

// boundedCeiling is the ceiling table for schedules where every real
// scheme is bounded (cooperative, preempted writer, bursty-with-drain,
// oversubscription): Leak is exempt, everything else must stay under the
// era ceiling (HP under its tighter one).
func boundedCeiling(kind wfe.SchemeKind) int {
	switch kind {
	case wfe.Leak:
		return 0
	case wfe.HP:
		return ceilingHP
	default:
		return ceilingEra
	}
}

// stalledReaderCeiling additionally exempts EBR: one stalled reservation
// stops its reclamation entirely, the distinction the paper's Table 1
// draws and the matrix test asserts from both sides.
func stalledReaderCeiling(kind wfe.SchemeKind) int {
	if kind == wfe.EBR {
		return 0
	}
	return boundedCeiling(kind)
}

// Cooperative is the control: no stalls, every scheme bounded, the
// advisor keeps EBR.
func Cooperative() Canned {
	return Canned{
		Scenario: Scenario{
			Name:  "cooperative",
			Seed:  1,
			Debug: true,
		},
		Ceiling:        boundedCeiling,
		WantAdvice:     "EBR",
		UnboundedFloor: ceilingEra,
	}
}

// StalledReader parks worker 0 for a 30-tick window while it holds a
// guard protecting the hot node: the scenario the schemes disagree on.
// The stall lifts at tick 50 with ten cooperative ticks left, so the
// trajectory also shows EBR's backlog draining once the reservation
// clears (and the post-run settle asserts it collapses).
func StalledReader() Canned {
	return Canned{
		Scenario: Scenario{
			Name:   "stalled-reader",
			Seed:   2,
			Stalls: []StallSpec{{Worker: 0, From: 20, To: 50, Kind: StallReader}},
			Debug:  true,
		},
		Ceiling:        stalledReaderCeiling,
		WantAdvice:     "WFE",
		UnboundedFloor: ceilingEra,
	}
}

// PreemptedWriter parks worker 0 for the same window but between
// operations, retire ring undrained and no reservation held: bounded for
// every scheme, the other side of the robustness distinction.
func PreemptedWriter() Canned {
	return Canned{
		Scenario: Scenario{
			Name:   "preempted-writer",
			Seed:   3,
			Stalls: []StallSpec{{Worker: 0, From: 20, To: 50, Kind: StallWriter}},
			Debug:  true,
		},
		Ceiling: boundedCeiling,
		// No advice pinned: a stranded ring barely moves EBR's backlog,
		// so the trajectory legitimately reads as cooperative.
		WantAdvice:     "",
		UnboundedFloor: ceilingEra,
	}
}

// BurstyChurn injects four short reader-stall spikes with calm stretches
// between: each spike's backlog excursion drains when the stall lifts, so
// memory stays bounded but the schedule is plainly not stall-free — the
// advisor's HE case.
func BurstyChurn() Canned {
	return Canned{
		Scenario: Scenario{
			Name:  "bursty-churn",
			Seed:  4,
			Ticks: 64,
			Stalls: []StallSpec{
				{Worker: 0, From: 8, To: 13, Kind: StallReader},
				{Worker: 1, From: 21, To: 26, Kind: StallReader},
				{Worker: 0, From: 34, To: 39, Kind: StallReader},
				{Worker: 2, From: 47, To: 52, Kind: StallReader},
			},
			Debug: true,
		},
		Ceiling:        boundedCeiling,
		WantAdvice:     "HE",
		UnboundedFloor: ceilingEra,
	}
}

// Oversubscription storms the map with goroutines ≫ guards so guardless
// acquisitions park; the concurrent engine runs it. Bounded memory for
// every scheme, park pressure on every trajectory.
//
// The pool is one guard, so one operation is in flight at a time: a worker
// descheduled mid-operation holds the only guard, and nobody retires
// behind its reservation. With two, EBR's highwater depended on how long
// the host kept that worker off a CPU — a stalled reader, which is the
// stalled-reader scenario's subject; this one's is guard parking.
func Oversubscription() Canned {
	return Canned{
		Scenario: Scenario{
			Name:       "oversubscription",
			Seed:       5,
			Goroutines: 16,
			MaxGuards:  1,
			Debug:      true,
		},
		Ceiling:        boundedCeiling,
		WantAdvice:     "HE",
		UnboundedFloor: ceilingEra,
	}
}

// ExhaustionStorm runs the put-heavy churn on an arena deliberately too
// small for the workload's allocation rate, with the scan cadence turned
// off (CleanupFreq far above the retire volume): the Domain's emergency
// allocation pipeline is the only reclamation in the run. Four writer
// stalls strand a retire ring each — writer stalls, not reader stalls,
// because a pinned reservation would make the pressure unresolvable for
// EBR and the point is that every judged scheme resolves it. The live set
// (~7/8 of KeyRange) occupies most of the arena, so allocation lives
// against the ceiling, pressure holds above the advisor's threshold once
// the map fills, and every put rides an emergency scan.
func ExhaustionStorm() Canned {
	return Canned{
		Scenario: Scenario{
			Name:     "exhaustion-storm",
			Seed:     6,
			KeyRange: 600,
			Capacity: 640,
			PutHeavy: true,
			// No cadence scans: 1<<20 exceeds the run's total retires.
			CleanupFreq: 1 << 20,
			// Fast era clock, so the freshly-retired window a worker's own
			// reservation pins stays a handful of blocks and its emergency
			// scan can always free the rest of its ring.
			EraFreq:   2,
			SpillSize: 64,
			Stalls: []StallSpec{
				{Worker: 0, From: 10, To: 15, Kind: StallWriter},
				{Worker: 1, From: 22, To: 27, Kind: StallWriter},
				{Worker: 2, From: 34, To: 39, Kind: StallWriter},
				{Worker: 0, From: 46, To: 51, Kind: StallWriter},
			},
			Debug: true,
		},
		// Every judged scheme's backlog is capped by the circulating pool
		// (capacity minus the live set) plus stranded rings; Leak's grows
		// to nearly the whole arena as deletes drain the exhausted map.
		Ceiling: func(kind wfe.SchemeKind) int {
			if kind == wfe.Leak {
				return 0
			}
			return 384
		},
		WantAdvice:     "HP",
		UnboundedFloor: 384,
		WantPressure:   true,
	}
}

// Catalog is the canned scenario matrix, in the order the docs and the
// -chaos stress mode present it.
func Catalog() []Canned {
	return []Canned{
		Cooperative(),
		StalledReader(),
		PreemptedWriter(),
		BurstyChurn(),
		Oversubscription(),
		ExhaustionStorm(),
	}
}

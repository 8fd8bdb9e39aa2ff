package wfe

// White-box tests for the Sampler's circular history, EWMA seeding and
// auto-switch hysteresis — the pieces with deterministic synthetic
// drivers. The black-box sampler behaviour (real Domain, real goroutine)
// lives in observability_test.go.

import (
	"testing"
	"time"

	"wfe/advisor"
)

// syntheticRows returns a sample source yielding rows with Allocs
// counting up by step per call — enough signal to tell rows apart and to
// derive an exact constant rate.
func syntheticRows(step uint64) func() Telemetry {
	var n uint64
	return func() Telemetry {
		n += step
		return Telemetry{Allocs: n, Frees: n, InUse: 0}
	}
}

// TestSamplerHistoryWrapsOldestFirst pins the circular buffer's public
// contract: once more ticks than History have run, History() returns
// exactly the last History rows, oldest first, with no seam at the wrap
// point.
func TestSamplerHistoryWrapsOldestFirst(t *testing.T) {
	const hist, ticks = 4, 11
	s := newSampler(syntheticRows(1), SamplerConfig{History: hist})
	base := time.Unix(0, 0)
	for i := 0; i < ticks; i++ {
		s.tick(base.Add(time.Duration(i) * time.Second))
	}
	got := s.History()
	if len(got) != hist {
		t.Fatalf("History() length %d, want %d", len(got), hist)
	}
	for i, row := range got {
		want := uint64(ticks - hist + i + 1) // rows are 1-based in Allocs
		if row.Allocs != want {
			t.Fatalf("History()[%d].Allocs = %d, want %d (wraparound misordered: %+v)", i, row.Allocs, want, got)
		}
	}
	if s.Ticks() != ticks {
		t.Fatalf("Ticks() = %d, want %d", s.Ticks(), ticks)
	}
}

// TestSamplerEWMASeedsFromFirstRate pins the seeding fix: with a
// perfectly constant synthetic rate, every tick's EWMA must equal that
// rate exactly. Before the fix the first blend mixed the measured rate
// with the zero initial value, reporting alpha x rate until enough ticks
// washed the zero out.
func TestSamplerEWMASeedsFromFirstRate(t *testing.T) {
	const step = 1000 // allocs per second at 1s tick spacing
	s := newSampler(syntheticRows(step), SamplerConfig{})
	base := time.Unix(0, 0)
	s.tick(base)
	for i := 1; i <= 6; i++ {
		s.tick(base.Add(time.Duration(i) * time.Second))
		r := s.Rates()
		if r.AllocsPerSec != step {
			t.Fatalf("tick %d: AllocsPerSec = %g, want exactly %d (EWMA blended from zero)", i, r.AllocsPerSec, step)
		}
		if r.FreesPerSec != step {
			t.Fatalf("tick %d: FreesPerSec = %g, want exactly %d", i, r.FreesPerSec, step)
		}
	}
}

// rec builds a minimal recommendation naming a scheme.
func rec(scheme string) advisor.Recommendation {
	return advisor.Recommendation{Scheme: scheme}
}

// autoSampler builds a stopped sampler with the hysteresis armed and the
// switch hooks stubbed, recording every fired switch.
func autoSampler(after int, current string) (*Sampler, *[]string) {
	fired := &[]string{}
	s := newSampler(func() Telemetry { return Telemetry{} },
		SamplerConfig{AutoSwitch: true, AutoSwitchAfter: after})
	cur := current
	s.current = func() string { return cur }
	s.switchTo = func(name string) error {
		*fired = append(*fired, name)
		cur = name // a real Switch changes the current scheme
		return nil
	}
	return s, fired
}

// TestAutoSwitchHysteresisFiresAfterStreak pins the basic trigger: the
// same non-current verdict AutoSwitchAfter ticks in a row fires exactly
// one switch, and the streak resets afterwards.
func TestAutoSwitchHysteresisFiresAfterStreak(t *testing.T) {
	s, fired := autoSampler(3, "EBR")
	for i := 0; i < 2; i++ {
		s.maybeSwitch(rec("WFE"))
	}
	if len(*fired) != 0 {
		t.Fatalf("switch fired after only 2/3 verdicts: %v", *fired)
	}
	s.maybeSwitch(rec("WFE"))
	if len(*fired) != 1 || (*fired)[0] != "WFE" {
		t.Fatalf("fired = %v, want exactly [WFE]", *fired)
	}
	// The recommendation now matches the (switched) current scheme: no
	// further fires however long it persists.
	for i := 0; i < 10; i++ {
		s.maybeSwitch(rec("WFE"))
	}
	if len(*fired) != 1 {
		t.Fatalf("re-fired on a now-current recommendation: %v", *fired)
	}
}

// TestAutoSwitchHysteresisNeverFiresOnFlap is the satellite's flap test:
// a synthetic trajectory alternating verdicts tick over tick must never
// accumulate a streak, however long it runs.
func TestAutoSwitchHysteresisNeverFiresOnFlap(t *testing.T) {
	s, fired := autoSampler(3, "EBR")
	for i := 0; i < 100; i++ {
		if i%2 == 0 {
			s.maybeSwitch(rec("WFE"))
		} else {
			s.maybeSwitch(rec("HE"))
		}
	}
	if len(*fired) != 0 {
		t.Fatalf("flapping advisor fired %d switches: %v", len(*fired), *fired)
	}
}

// TestAutoSwitchHysteresisResetOnCurrent pins the reset rule: a verdict
// for the current scheme clears a partial streak, so W,W,current,W,W,W
// fires only at the end of the fresh three-streak.
func TestAutoSwitchHysteresisResetOnCurrent(t *testing.T) {
	s, fired := autoSampler(3, "EBR")
	s.maybeSwitch(rec("WFE"))
	s.maybeSwitch(rec("WFE"))
	s.maybeSwitch(rec("EBR")) // back to current: streak must reset
	s.maybeSwitch(rec("WFE"))
	s.maybeSwitch(rec("WFE"))
	if len(*fired) != 0 {
		t.Fatalf("fired across a reset streak: %v", *fired)
	}
	s.maybeSwitch(rec("WFE"))
	if len(*fired) != 1 {
		t.Fatalf("fired = %v, want one switch after the fresh streak", *fired)
	}
}

// TestAutoSwitchDisabledWithoutHooks pins the safety default: a sampler
// without the Domain's switch hooks (or without AutoSwitch) never acts,
// whatever the advisor says.
func TestAutoSwitchDisabledWithoutHooks(t *testing.T) {
	s := newSampler(func() Telemetry { return Telemetry{} }, SamplerConfig{})
	for i := 0; i < 10; i++ {
		s.maybeSwitch(rec("WFE")) // must not panic on nil hooks
	}
	if s.autoAfter != 0 {
		t.Fatalf("autoAfter = %d without AutoSwitch, want 0", s.autoAfter)
	}
}

// TestAutoSwitchWiringDrivesDomainSwitch pins the StartSampler wiring
// end to end: a sampler started with AutoSwitch gets Domain hooks that
// really switch the scheme. The sampler goroutine is stopped first so the
// hysteresis can be driven deterministically by hand.
func TestAutoSwitchWiringDrivesDomainSwitch(t *testing.T) {
	d, err := NewDomain[int](Options{Capacity: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s := d.StartSampler(SamplerConfig{
		Interval:        time.Hour, // started but effectively inert
		AutoSwitch:      true,
		AutoSwitchAfter: 2,
	})
	s.Stop()
	if s.switchTo == nil || s.current == nil {
		t.Fatal("AutoSwitch did not wire the sampler's switch hooks")
	}
	if got := s.current(); got != "WFE" {
		t.Fatalf("current() = %q, want WFE", got)
	}
	s.maybeSwitch(rec("EBR"))
	if d.Scheme() != WFE {
		t.Fatal("switched after 1/2 verdicts")
	}
	s.maybeSwitch(rec("EBR"))
	if d.Scheme() != EBR {
		t.Fatalf("Scheme() = %v after the streak completed, want EBR", d.Scheme())
	}
	if n := d.Telemetry().SchemeSwitches; n != 1 {
		t.Fatalf("SchemeSwitches = %d, want 1", n)
	}
}

// BenchmarkSamplerTick measures the steady-state tick with a full
// history ring — the path the circular buffer converted from an
// O(History) memmove per tick to O(1) bookkeeping (the advisor window
// re-derivation dominates what remains).
func BenchmarkSamplerTick(b *testing.B) {
	s := newSampler(syntheticRows(100), SamplerConfig{History: 600})
	base := time.Unix(0, 0)
	for i := 0; i < 600; i++ { // fill the ring so every tick wraps
		s.tick(base.Add(time.Duration(i) * time.Millisecond))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.tick(base.Add(time.Duration(600+i) * time.Millisecond))
	}
}

package chaos

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"wfe"
	"wfe/advisor"
)

// short is a fast stalled-reader scenario for the engine's unit tests;
// the full canned matrix lives in the root package's chaos tests.
func short() Scenario {
	return Scenario{
		Name:       "unit",
		Seed:       42,
		Ticks:      24,
		Workers:    3,
		OpsPerTick: 60,
		Stalls:     []StallSpec{{Worker: 1, From: 6, To: 18, Kind: StallReader}},
		Debug:      true,
	}
}

// TestDeterministicTrajectory is the engine's core promise: the same
// (scenario, scheme, seed) reproduces the identical trajectory — every
// tick sample byte for byte — so the robustness matrix is a unit test,
// not a flaky stress.
func TestDeterministicTrajectory(t *testing.T) {
	for _, kind := range []wfe.SchemeKind{wfe.WFE, wfe.EBR, wfe.HP} {
		a, err := Run(kind, short())
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		b, err := Run(kind, short())
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !reflect.DeepEqual(a.Ticks, b.Ticks) {
			t.Fatalf("%s: same seed produced different trajectories", kind)
		}
		if !a.Summary.Deterministic {
			t.Errorf("%s: sequential trajectory not marked deterministic", kind)
		}
	}
}

func TestSeedChangesTrajectory(t *testing.T) {
	a, err := Run(wfe.WFE, short())
	if err != nil {
		t.Fatal(err)
	}
	s := short()
	s.Seed = 43
	b, err := Run(wfe.WFE, s)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Ticks, b.Ticks) {
		t.Fatal("different seeds produced identical trajectories")
	}
}

func TestStallWindowMarked(t *testing.T) {
	tr, err := Run(wfe.WFE, short())
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Ticks) != 24 {
		t.Fatalf("recorded %d ticks, want 24", len(tr.Ticks))
	}
	for _, ts := range tr.Ticks {
		want := ts.Tick >= 6 && ts.Tick < 18
		if ts.Stalled != want {
			t.Errorf("tick %d: Stalled = %v, want %v", ts.Tick, ts.Stalled, want)
		}
	}
}

func TestQuiesceCleanAfterStall(t *testing.T) {
	for _, kind := range wfe.AllSchemes() {
		tr, err := Run(kind, short())
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if tr.Summary.Quiesce != "" {
			t.Errorf("%s: post-run quiesce failed: %s", kind, tr.Summary.Quiesce)
		}
	}
}

func TestTrajectoryJSONRoundTrip(t *testing.T) {
	a, err := Run(wfe.HE, short())
	if err != nil {
		t.Fatal(err)
	}
	if a.Schema != Schema {
		t.Fatalf("Schema = %q, want %q", a.Schema, Schema)
	}
	blob, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	var b Trajectory
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*a, b) {
		t.Fatal("trajectory did not survive a JSON round trip")
	}
}

func TestSamplesConversion(t *testing.T) {
	tr, err := Run(wfe.WFE, short())
	if err != nil {
		t.Fatal(err)
	}
	samples := tr.Samples()
	if len(samples) != len(tr.Ticks) {
		t.Fatalf("Samples() returned %d entries for %d ticks", len(samples), len(tr.Ticks))
	}
	for i, s := range samples {
		ts := tr.Ticks[i]
		if s.Tick != ts.Tick || s.Unreclaimed != ts.Unreclaimed ||
			s.ScanScans != ts.ScanScans || s.ScanBlocks != ts.ScanBlocks ||
			s.P99Steps != ts.P99Steps || s.GuardParks != ts.GuardParks {
			t.Fatalf("sample %d diverges from tick: %+v vs %+v", i, s, ts)
		}
	}
}

// TestOversubscriptionParks pins the storm engine's one guarantee: the
// pool visibly parks. Exact values are scheduler-dependent, so only the
// pressure signal is asserted.
func TestOversubscriptionParks(t *testing.T) {
	s := Oversubscription().Scenario
	s.Ticks = 20
	tr, err := Run(wfe.EBR, s)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Summary.Deterministic {
		t.Error("concurrent trajectory marked deterministic")
	}
	if tr.Summary.Parks == 0 {
		t.Error("oversubscription storm recorded zero guard parks")
	}
	if tr.Summary.Quiesce != "" {
		t.Errorf("post-storm quiesce failed: %s", tr.Summary.Quiesce)
	}
}

func TestCatalogShape(t *testing.T) {
	names := map[string]bool{}
	for _, c := range Catalog() {
		if c.Name == "" || names[c.Name] {
			t.Fatalf("catalog scenario with empty or duplicate name: %+v", c.Scenario)
		}
		names[c.Name] = true
		if c.Ceiling == nil {
			t.Fatalf("%s: no ceiling table", c.Name)
		}
		if c.Ceiling(wfe.Leak) != 0 {
			t.Errorf("%s: Leak must be ceiling-exempt", c.Name)
		}
		if c.UnboundedFloor <= 0 {
			t.Errorf("%s: no unbounded floor pinned", c.Name)
		}
	}
	for _, want := range []string{"cooperative", "stalled-reader", "preempted-writer", "bursty-churn", "oversubscription"} {
		if !names[want] {
			t.Errorf("catalog missing %q", want)
		}
	}
}

// legacyTick is one wfe-chaos/v1 tick as recorded before the tick rows
// became the Domain's full Telemetry snapshot: only the per-tick columns,
// under the keys trajectories were written with.
const legacyTick = `{"tick":12,"stalled":true,"unreclaimed":37,"scan_scans":101,` +
	`"scan_blocks":2020,"max_steps":5,"p99_steps":2,"allocs":5000,"frees":4800,` +
	`"in_use":200,"guard_parks":7,"capacity":640,"emergency_scans":9,` +
	`"batch_ops":4,"batched_items":128}`

// TestLegacyTickDecodes pins JSON compatibility for recorded artifacts:
// a tick written with the old keys decodes into TickSample with every
// value intact, re-encodes under the same keys, and converts to the
// advisor sample the old per-column conversion produced.
func TestLegacyTickDecodes(t *testing.T) {
	var ts TickSample
	if err := json.Unmarshal([]byte(legacyTick), &ts); err != nil {
		t.Fatal(err)
	}
	want := TickSample{Tick: 12, Stalled: true, Telemetry: wfe.Telemetry{
		Unreclaimed: 37, ScanScans: 101, ScanBlocks: 2020, MaxSteps: 5, P99Steps: 2,
		Allocs: 5000, Frees: 4800, InUse: 200, GuardParks: 7, Capacity: 640,
		EmergencyScans: 9, BatchOps: 4, BatchedItems: 128,
	}}
	if ts != want {
		t.Fatalf("legacy tick decoded as %+v, want %+v", ts, want)
	}

	blob, err := json.Marshal(ts)
	if err != nil {
		t.Fatal(err)
	}
	var old, re map[string]any
	if err := json.Unmarshal([]byte(legacyTick), &old); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &re); err != nil {
		t.Fatal(err)
	}
	for k, v := range old {
		if re[k] != v {
			t.Errorf("key %q re-encoded as %v, recorded as %v", k, re[k], v)
		}
	}

	tr := Trajectory{Ticks: []TickSample{ts}}
	got := tr.Samples()
	wantSample := advisor.Sample{
		Tick: 12, Unreclaimed: 37, ScanScans: 101, ScanBlocks: 2020, P99Steps: 2,
		GuardParks: 7, Pressure: 200.0 / 640, EmergencyScans: 9,
	}
	if len(got) != 1 || got[0] != wantSample {
		t.Fatalf("Samples() = %+v, want [%+v]", got, wantSample)
	}
}

// TestVerdictCatchesMissingPressure feeds the shared verdict a synthetic
// exhaustion-storm trajectory that never entered the emergency pipeline:
// it must report the violation, for the CLI as for the matrix test.
func TestVerdictCatchesMissingPressure(t *testing.T) {
	c := ExhaustionStorm()
	tr := &Trajectory{
		Schema:   Schema,
		Scenario: c.Name,
		Scheme:   wfe.WFE.String(),
		Summary:  Summary{UnreclaimedMax: 10, Deterministic: true},
	}
	bad := c.Verdict(wfe.WFE, tr)
	if len(bad) != 1 || !strings.Contains(bad[0], "emergency pipeline") {
		t.Fatalf("Verdict = %q, want one emergency-pipeline violation", bad)
	}
	tr.Summary.EmergencyScans = 3
	if bad := c.Verdict(wfe.WFE, tr); len(bad) != 0 {
		t.Fatalf("Verdict on a healthy trajectory = %q, want none", bad)
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// The self-check: a tiny run of every workload must pass its correctness
// checks and emit exactly the metrics BENCHMARK.json names, with their
// units, and a planted wrong result must fail the checks.
//
//	cd perfbench && go test .

type namedMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []namedMetric `json:"end_to_end"`
	PerLayer []namedMetric `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func tiny(workload string, trace bool) config {
	c := defaults()
	c.workload, c.seed, c.seconds, c.trace = workload, 7, 0.4, trace
	c.warmup, c.setups = 50*time.Millisecond, 1
	return c
}

func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	b := readBenchmarkFile(t)
	var listed, built []string
	for _, w := range b.Workloads {
		listed = append(listed, w.Name)
	}
	for _, s := range specs {
		built = append(built, s.name)
	}
	if strings.Join(listed, ",") != strings.Join(built, ",") {
		t.Fatalf("BENCHMARK.json lists %v, the benchmark runs %v", listed, built)
	}
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	b := readBenchmarkFile(t)
	for _, s := range specs {
		for _, trace := range []bool{false, true} {
			r, err := run(tiny(s.name, trace))
			if err != nil {
				t.Fatal(err)
			}
			if !r.correct {
				t.Fatalf("%s trace=%v: checks failed: %v", s.name, trace, r.problem)
			}
			if r.attempted == 0 || r.failed != 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d", s.name, trace, r.attempted, r.failed)
			}
			want := b.EndToEnd
			if trace {
				want = b.PerLayer
			}
			if len(r.metrics) != len(want) {
				t.Errorf("%s trace=%v: emitted %d metrics, BENCHMARK.json names %d", s.name, trace, len(r.metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not emitted", s.name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: %s has unit %q, BENCHMARK.json says %q", s.name, trace, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

func TestCorruptedResultIsCaught(t *testing.T) {
	for _, s := range specs {
		c := tiny(s.name, false)
		c.corrupt = true
		r, err := run(c)
		if err != nil {
			t.Fatal(err)
		}
		if r.correct {
			t.Errorf("%s: a planted wrong result passed the checks", s.name)
		} else {
			t.Logf("%s: caught: %v", s.name, r.problem)
		}
		var out bytes.Buffer
		if printJSON(&out, []*report{r}) {
			t.Errorf("%s: result line reports correct for a failed check", s.name)
		}
	}
}

func TestResultLineShape(t *testing.T) {
	r := &report{correct: true, attempted: 3, metrics: map[string]metric{"setup_s": {0.5, "s"}}}
	var out bytes.Buffer
	printJSON(&out, []*report{r})
	var line map[string]json.RawMessage
	if err := json.Unmarshal(out.Bytes(), &line); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := line[k]; !ok {
			t.Errorf("result line lacks %q: %s", k, out.String())
		}
	}
	if len(line) != 4 {
		t.Errorf("result line has extra keys: %s", out.String())
	}
}

func TestExactlyOnce(t *testing.T) {
	var a, b bitmap
	for i := uint64(0); i < 100; i++ {
		if i%3 == 0 {
			a.set(i)
		} else {
			b.set(i)
		}
	}
	if err := exactlyOnce([]bitmap{a, b}, 100); err != nil {
		t.Fatalf("a clean split was rejected: %v", err)
	}
	if exactlyOnce([]bitmap{a, b}, 101) == nil {
		t.Error("a lost value was not caught")
	}
	dup := append(bitmap(nil), b...)
	dup.set(0)
	if exactlyOnce([]bitmap{a, dup}, 100) == nil {
		t.Error("a duplicated value was not caught")
	}
}

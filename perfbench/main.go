// Command perfbench is the repository's benchmark. It drives only the
// public wfe API (Domain, HashMap, Tree, WFQueue, Pin/Unpin, Telemetry)
// under the default scheme (WFE) with a closed loop of two worker
// goroutines, checks every run's results, and prints each metric with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced.
// With -trace 1 the run is split into an untraced half, whose Telemetry
// deltas give the per-layer counts, and a traced half, which runs every
// guardless call as Pin / *Guarded / Unpin and records spans for a
// seed-chosen sample of calls; the per-layer times come from those spans.
// BENCHMARK.json at the repository root lists the workloads and metrics.
//
// Usage (from the repository root; run.py builds this package first):
//
//	python3 perfbench/run.py -workload hashmap-churn -seed 1 -seconds 25 -trace 0
//	python3 perfbench/run.py -workload all -seed 1 -seconds 2 -trace 1
//
// The process exits 1 when a correctness check fails and 2 on bad usage.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"wfe"
	"wfe/internal/quiesce"
)

// config is one invocation. The last three fields are fixed on the
// command line; the self-check shrinks them.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string // directory for the span file ("" writes none)

	warmup  time.Duration // untimed running before the measured window
	setups  int           // set-ups timed; setup_s is their median
	corrupt bool          // plant a wrong result before the checks
}

func defaults() config {
	return config{warmup: time.Second, setups: 7}
}

// A metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// A report is one workload's result.
type report struct {
	workload  string
	correct   bool
	problem   error
	attempted uint64
	failed    uint64
	names     []string // metric names in print order
	metrics   map[string]metric
	samples   int       // latency samples behind op_p50_ns / op_p99_ns
	windows   []float64 // throughput windows, items/s, sorted
	spans     []span
}

func (r *report) set(name string, v float64, unit string) {
	if _, dup := r.metrics[name]; !dup {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{v, unit}
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func run(cfg config) (*report, error) {
	sp, ok := lookup(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	in := genInputs(sp, cfg.seed)

	// Warm-up outside every timing: the first Domain of a process runs
	// the one-time scan sort-cutoff calibration.
	if d, err := wfe.NewDomain[uint64](wfe.Options{Capacity: 1024}); err == nil {
		d.Close()
	} else {
		return nil, err
	}

	var d *wfe.Domain[uint64]
	var wl workload
	var setupS []float64
	for range max(1, cfg.setups) {
		if d != nil {
			d.Close()
			d, wl = nil, nil
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if d, err = wfe.NewDomain[uint64](wfe.Options{}); err != nil {
			return nil, err
		}
		wl = sp.create(d, in)
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer d.Close()

	ws := make([]*worker, numWorkers)
	for i := range ws {
		ws[i] = &worker{id: i, ex: wl.executor(i), st: &in.streams[i]}
	}
	measure := time.Duration(cfg.seconds * float64(time.Second))
	runPhase(d, ws, warmup, cfg.warmup, false)

	r := &report{workload: sp.name, metrics: map[string]metric{}}
	if !cfg.trace {
		p := runPhase(d, ws, timed, measure, false)
		r.attempted, r.failed, r.samples = p.items, p.failed, len(p.lat)
		r.set("throughput_mops", p.throughput()/1e6, "Mops/s")
		r.windows = slices.Sorted(slices.Values(p.rates))
		r.set("op_p50_ns", quantile(p.lat, 0.50), "ns")
		r.set("op_p99_ns", quantile(p.lat, 0.99), "ns")
		r.set("footprint_blocks", float64(d.Telemetry().ArenaBumpHighwater), "blocks")
		r.set("success_rate", 1-ratio(float64(p.failed), float64(p.items)), "ratio")
		r.set("setup_s", quantile(setupS, 0.5), "s")
	} else {
		u := runPhase(d, ws, timed, measure/2, true)
		t := runPhase(d, ws, traced, measure/2, false)
		r.attempted, r.failed, r.samples = u.items+t.items, u.failed+t.failed, len(u.lat)
		layers(r, u, t)
		for _, tr := range t.tracers {
			r.spans = append(r.spans, tr.kept...)
		}
	}

	if cfg.corrupt {
		wl.corrupt()
	}
	r.problem = wl.check()
	quiesce.Settle(d)
	if err := quiesce.Check(d, true); r.problem == nil {
		r.problem = err
	}
	r.correct = r.problem == nil
	return r, nil
}

// layers derives the per-layer metrics: counts from the untraced phase u's
// Telemetry deltas, times from the traced phase t's spans.
func layers(r *report, u, t *phase) {
	b, a := u.before, u.after
	ops := float64(u.items)
	delta := func(x, y uint64) float64 { return float64(y - x) }
	hits, misses := delta(b.GuardCacheHits, a.GuardCacheHits), delta(b.GuardCacheMisses, a.GuardCacheMisses)
	scanNs := delta(b.ScanNanos, a.ScanNanos)
	blocks := delta(b.ScanBlocks, a.ScanBlocks)

	r.set("guardpool.pin_ns_p50", quantile(t.durations(spanPin), 0.5), "ns")
	r.set("guardpool.unpin_ns_p50", quantile(t.durations(spanUnpin), 0.5), "ns")
	r.set("guardpool.lease_hit_ratio", ratio(hits, hits+misses), "ratio")
	r.set("guardpool.leases_per_op", ratio(hits+misses, ops), "count")
	r.set("guardpool.parks", delta(b.GuardParks, a.GuardParks), "count")

	// The structure body's own time: the mean *Guarded (or Multi*) span
	// per item, less the scan time the traced phase spent inside it.
	body := t.durations(spanGuarded)
	if len(body) == 0 {
		body = t.durations(spanBatch)
	}
	perItem := mean(body) * ratio(float64(t.calls), float64(t.items))
	tScan := ratio(delta(t.before.ScanNanos, t.after.ScanNanos), float64(t.items))
	r.set("ds.guarded_ns_p50", quantile(t.durations(spanGuarded), 0.5), "ns")
	r.set("ds.self_ns_per_op", perItem-tScan, "ns")

	r.set("core.p99_steps", float64(a.P99Steps), "steps")
	r.set("core.max_steps", float64(a.MaxSteps), "steps")
	r.set("core.slow_paths_per_mop", ratio(1e6*delta(b.SlowPaths, a.SlowPaths), ops), "1/Mop")
	r.set("core.era_ticks_per_kop", ratio(1e3*delta(b.Era, a.Era), ops), "1/kop")

	r.set("mem.allocs_per_op", ratio(delta(b.Allocs, a.Allocs), ops), "count")
	r.set("mem.frees_per_op", ratio(delta(b.Frees, a.Frees), ops), "count")
	segs := delta(b.ArenaSegPushes, a.ArenaSegPushes) + delta(b.ArenaSegPops, a.ArenaSegPops)
	r.set("mem.seg_transfers_per_kop", ratio(1e3*segs, ops), "1/kop")
	r.set("mem.alloc_stalls", delta(b.AllocStalls, a.AllocStalls), "count")
	r.set("mem.emergency_scans", delta(b.EmergencyScans, a.EmergencyScans), "count")

	r.set("reclaim.scans_per_kop", ratio(1e3*delta(b.ScanScans, a.ScanScans), ops), "1/kop")
	r.set("reclaim.scan_ns_per_op", ratio(scanNs, ops), "ns")
	r.set("reclaim.scan_ns_per_block", ratio(scanNs, blocks), "ns")
	r.set("reclaim.freed_per_examined", ratio(delta(b.Frees, a.Frees), blocks), "ratio")
	r.set("reclaim.scan_share", ratio(scanNs, float64(numWorkers)*float64(u.elapsed.Nanoseconds())), "ratio")
	r.set("reclaim.unreclaimed_mean", mean(u.unreclaimed), "blocks")

	bops := delta(b.BatchOps, a.BatchOps)
	bhits, bmisses := delta(b.BatchGuardCacheHits, a.BatchGuardCacheHits), delta(b.BatchGuardCacheMisses, a.BatchGuardCacheMisses)
	r.set("batch.call_ns_p50", quantile(t.durations(spanBatch), 0.5), "ns")
	r.set("batch.items_per_batch", ratio(delta(b.BatchedItems, a.BatchedItems), bops), "count")
	r.set("batch.lease_hit_ratio", ratio(bhits, bhits+bmisses), "ratio")

	r.set("harness.trace_overhead", ratio(t.throughput(), u.throughput()), "ratio")
	r.set("harness.latency_samples", float64(len(u.lat)), "count")
}

func main() {
	cfg := defaults()
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name, or all")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 25, "measured seconds per run (at least 0.2)")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced, per-layer variant")
	flag.StringVar(&cfg.out, "out", "", "directory for the span file of a traced run")
	flag.Parse()
	// The traced run splits the window in halves, each at least one
	// throughput window long.
	if trace != 0 && trace != 1 || cfg.seconds < 2*window.Seconds() || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	cfg.trace = trace == 1

	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = names[:0]
		for _, s := range specs {
			names = append(names, s.name)
		}
	} else if _, ok := lookup(cfg.workload); !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.workload)
		os.Exit(2)
	}
	fmt.Printf("# perfbench seed=%d seconds=%g trace=%d go=%s GOMAXPROCS=%d nproc=%d scheme=%s workers=%d\n",
		cfg.seed, cfg.seconds, trace, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), wfe.WFE, numWorkers)
	var reports []*report
	for _, name := range names {
		c := cfg
		c.workload = name
		r, err := run(c)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		printReport(os.Stdout, r)
		if cfg.trace && cfg.out != "" {
			if err := writeSpans(cfg.out, r, cfg.seed); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				os.Exit(2)
			}
		}
		reports = append(reports, r)
	}
	if len(reports) > 1 {
		printTable(os.Stdout, reports)
	}
	ok := printJSON(os.Stdout, reports)
	if !ok {
		os.Exit(1)
	}
}

func printReport(w io.Writer, r *report) {
	fmt.Fprintf(w, "## %s\n", r.workload)
	for _, n := range r.names {
		m := r.metrics[n]
		fmt.Fprintf(w, "%-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	if _, ok := r.metrics["op_p50_ns"]; ok {
		fmt.Fprintf(w, "%-28s %14d count (behind op_p50_ns and op_p99_ns)\n", "latency samples", r.samples)
		n := len(r.windows)
		fmt.Fprintf(w, "%-28s %14d windows of %v, quartiles %.4g / %.4g / %.4g Mops/s\n", "throughput windows", n, window,
			r.windows[n/4]/1e6, r.windows[n/2]/1e6, r.windows[3*n/4]/1e6)
	}
	verdict := "ok"
	if !r.correct {
		verdict = "FAILED: " + r.problem.Error()
	}
	fmt.Fprintf(w, "%-28s %14s\n", "checks", verdict)
}

// printTable prints every workload's metrics side by side, so a reader
// can see at a glance which layer does the work in which workload.
func printTable(w io.Writer, rs []*report) {
	fmt.Fprintf(w, "## side by side\n%-28s", "metric")
	for _, r := range rs {
		fmt.Fprintf(w, " %14s", r.workload)
	}
	fmt.Fprintln(w)
	for _, n := range rs[0].names {
		fmt.Fprintf(w, "%-28s", n)
		for _, r := range rs {
			fmt.Fprintf(w, " %14.4g", r.metrics[n].Value)
		}
		fmt.Fprintf(w, " %s\n", rs[0].metrics[n].Unit)
	}
}

// printJSON prints the result line and reports whether every check held.
// A single workload's metrics keep their names; "all" prefixes each with
// its workload.
func printJSON(w io.Writer, rs []*report) bool {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	for _, r := range rs {
		out.Correct = out.Correct && r.correct
		out.Attempted += r.attempted
		out.Failed += r.failed
		for n, m := range r.metrics {
			if len(rs) > 1 {
				n = r.workload + "/" + n
			}
			out.Metrics[n] = m
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain structs and finite floats always marshal
	}
	fmt.Fprintln(w, string(b))
	return out.Correct
}

// writeSpans writes a traced run's kept spans as JSON, with the run's
// identity, to dir/spans-<workload>-seed<seed>.json.
func writeSpans(dir string, r *report, seed uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Go       string `json:"go"`
		Spans    []span `json:"spans"`
	}{r.workload, seed, runtime.Version(), r.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	name := fmt.Sprintf("spans-%s-seed%d.json", r.workload, seed)
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

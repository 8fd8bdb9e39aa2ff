// Batched-operation benchmarks and the CI guard asserting the
// acceptance bar: at batch width 32 a Domain.Batch of PutGuarded or
// DeleteGuarded calls must reach at least 1.3x the per-op guardless
// throughput on the hash-map churn mix for the era schemes, while width
// 1 — the batch machinery with nothing to amortize — must stay within
// 1.1x of per-op cost. The
// benchmarks run in any `go test -bench` sweep; the guard test is
// env-gated (WFE_OVERHEAD_GUARD=1) because it needs a quiet machine to
// be a fair judge, and CI runs it on a dedicated step.
package wfe_test

import (
	"fmt"
	"os"
	"sort"
	"testing"
	"time"

	"wfe"
)

// churnMap builds the Domain and 64-bucket HashMap the churn mix runs on.
func churnMap(tb testing.TB, kind wfe.SchemeKind) (*wfe.Domain[uint64], *wfe.HashMap[uint64]) {
	tb.Helper()
	d, err := wfe.NewDomain[uint64](wfe.Options{
		Scheme:   kind,
		Capacity: 1 << 16,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return d, wfe.NewHashMap[uint64](d, 64)
}

// churn runs items [from, from+n) of the 50% put / 50% delete mix over
// 512 keys through the guardless HashMap API: per operation at width 0,
// or as Domain.Batch bursts of width items, each all puts or all deletes.
// from must be a multiple of width, so the bursts alternate exactly as
// the per-op items do at width 1.
func churn(d *wfe.Domain[uint64], m *wfe.HashMap[uint64], width, from, n int) {
	const mask = 511
	if width == 0 {
		for i := from; i < from+n; i++ {
			k := uint64(i) & mask
			if i&1 == 0 {
				m.Put(k, uint64(i))
			} else {
				m.Delete(k)
			}
		}
		return
	}
	for i := from; i < from+n; i += width {
		insert := (i/width)&1 == 0
		d.Batch(func(g *wfe.Guard[uint64]) {
			for j := i; j < i+width; j++ {
				if insert {
					m.PutGuarded(g, uint64(j)&mask, uint64(j))
				} else {
					m.DeleteGuarded(g, uint64(j)&mask)
				}
			}
		})
	}
}

// batchChurn benchmarks the churn mix at one width; b.N counts items at
// every width, so ns/op compares directly across widths.
func batchChurn(b *testing.B, kind wfe.SchemeKind, width int) {
	d, m := churnMap(b, kind)
	b.ResetTimer()
	churn(d, m, width, 0, b.N)
}

func BenchmarkBatchPerOp(b *testing.B) { batchChurn(b, wfe.WFE, 0) }
func BenchmarkBatch1(b *testing.B)     { batchChurn(b, wfe.WFE, 1) }
func BenchmarkBatch8(b *testing.B)     { batchChurn(b, wfe.WFE, 8) }
func BenchmarkBatch32(b *testing.B)    { batchChurn(b, wfe.WFE, 32) }
func BenchmarkBatch128(b *testing.B)   { batchChurn(b, wfe.WFE, 128) }

// TestBatchSpeedupGuard is the CI-asserted bar for Domain.Batch, per
// era scheme (WFE and HE): width 32 at >= 1.3x per-op throughput, width
// 1 within 1.1x of per-op cost. Timing ratios on shared runners drift by
// tens of percent between seconds, so the guard pairs the sides tightly:
// one Domain and map run per-op, width-1 and width-32 chunks of the same
// items round-robin, each chunk timed on its own, and each bar is judged
// on the median over rounds of the per-round ratio. Drift, map state and
// cache warmth then land on all three sides of a round alike, and a
// preempted chunk moves one round's ratio, not the verdict.
func TestBatchSpeedupGuard(t *testing.T) {
	if os.Getenv("WFE_OVERHEAD_GUARD") != "1" {
		t.Skip("set WFE_OVERHEAD_GUARD=1 to run the batch speedup guard")
	}
	const rounds, chunk = 1000, 2048 // chunk: a multiple of every width
	widths := [3]int{0, 1, 32}       // per-op, batch1, batch32
	median := func(xs []float64) float64 {
		sort.Float64s(xs)
		return xs[len(xs)/2]
	}
	for _, kind := range []wfe.SchemeKind{wfe.WFE, wfe.HE} {
		t.Run(fmt.Sprint(kind), func(t *testing.T) {
			d, m := churnMap(t, kind)
			churn(d, m, 0, 0, chunk) // warm-up: fill the key range
			var total [3]time.Duration
			overheads := make([]float64, rounds)
			speedups := make([]float64, rounds)
			for r := 0; r < rounds; r++ {
				var spent [3]time.Duration
				for j, width := range widths {
					start := time.Now()
					churn(d, m, width, r*chunk, chunk)
					spent[j] = time.Since(start)
					total[j] += spent[j]
				}
				overheads[r] = float64(spent[1]) / float64(spent[0])
				speedups[r] = float64(spent[0]) / float64(spent[2])
			}
			perItem := func(j int) float64 { return float64(total[j]) / (rounds * chunk) }
			overhead, speedup := median(overheads), median(speedups)
			t.Logf("%s: per-op %.1f ns/item, batch1 %.1f ns/item, batch32 %.1f ns/item; per-round medians: batch1 %.3fx per-op, batch32 %.2fx speedup",
				kind, perItem(0), perItem(1), perItem(2), overhead, speedup)
			if speedup < 1.3 {
				t.Errorf("%s: batch=32 speedup %.2fx below the 1.3x bar", kind, speedup)
			}
			if overhead > 1.1 {
				t.Errorf("%s: batch=1 costs %.3fx per-op, above the 1.1x bar", kind, overhead)
			}
		})
	}
}

// Command perfbench is the whole-pipeline benchmark of NetAlytics: seeded
// open-loop traffic through vnet → SDN mirror → NFV monitor → parser → mq →
// stream → session sink of a default-configured testbed, with every answer
// checked. See README.md for the workloads and metric definitions.
//
//	perfbench -workload mix6 -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object with the fields
// correct, attempted, failed and metrics. With -trace 0 the metrics are the
// end-to-end ones; with -trace 1 they are the per-layer ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	outDir   string
	spans    *spans // nil outside the traced testbed

	mu         sync.Mutex // guards the control-plane samples (churn runs concurrently)
	submitMS   []float64
	stopMS     []float64
	submitErrs int
	calls      int // Submit and Stop calls made

	attempted, failed int // oracle verdicts
	leaked            int // rules, taps, instances and goroutines left after teardown
	drops             int // program loss counters
	injectErrs        int
	genLate           []float64
	baseGoroutines    int
}

func (b *bench) addSubmit(d time.Duration, err error, record bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.calls++
	if err != nil {
		b.submitErrs++
	} else if record {
		b.submitMS = append(b.submitMS, ms(d))
	}
}

func (b *bench) addStop(d time.Duration, record bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.calls++
	if record {
		b.stopMS = append(b.stopMS, ms(d))
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// setupReps is how many testbeds a run builds after its warm-up. setup_s
// is the mean of their fastest three quarters: set-up times are bimodal
// where the first result waits for a stream tick (topk: 0.2 or 0.3 s,
// depending on the tick's phase), so any single quantile jumps between the
// modes, while dropping the slowest quarter keeps a burst of outside load
// on a shared machine from moving the mean.
const setupReps = 20

// finalReps is how many of those testbeds share the timed phase. The CPU
// cost per frame differs by up to 15 % between testbeds of one process, so
// the timed phase is split across several testbeds and its totals summed.
const finalReps = 4

// metric is one reported value.
type metric struct {
	name  string
	value float64
	unit  string
}

func newWorkload(name string, seed int64) workload {
	switch name {
	case "mix6":
		return newMix6(seed)
	case "topk":
		return newTopk(seed)
	case "fanout32":
		return newFanout32(seed)
	}
	return nil
}

func main() {
	name := flag.String("workload", "", "workload: mix6, topk or fanout32")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for spans and CPU profiles")
	flag.Parse()
	w := newWorkload(*name, *seed)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload mix6|topk|fanout32 -seed N -seconds N -trace 0|1")
		os.Exit(2)
	}
	b := &bench{workload: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second, outDir: *out}
	runtime.GC()
	b.baseGoroutines = runtime.NumGoroutine()

	var metrics []metric
	if *trace == 1 {
		if err := os.MkdirAll(b.outDir, 0o755); err != nil {
			fatalf("creating %s: %v", b.outDir, err)
		}
		metrics = b.runTraced(w)
	} else {
		metrics = b.runEndToEnd(w)
	}

	attempted := b.attempted + b.calls
	failed := b.failed + b.submitErrs + b.leaked + b.drops + b.injectErrs
	if b.leaked > 0 || b.drops > 0 || b.injectErrs > 0 {
		fmt.Printf("# ledger: %d leaked objects, %d dropped by the program, %d rejected injections\n",
			b.leaked, b.drops, b.injectErrs)
	}
	failRatio := metric{"fail_ratio", float64(failed) / float64(max(attempted, 1)), "ratio"}
	if *trace == 1 {
		metrics = append(metrics, failRatio)
	} else {
		// Not an end-to-end metric: it is 0 on a correct run. The JSON
		// carries it as failed/attempted.
		fmt.Printf("# %s %.6f (%d of %d operations failed)\n", failRatio.name, failRatio.value, failed, attempted)
	}
	report(metrics, attempted, failed)
	if failed > 0 {
		os.Exit(1)
	}
}

// runEndToEnd sets up setupReps testbeds; the last finalReps of them each
// run an equal share of the timed phase.
func (b *bench) runEndToEnd(w workload) []metric {
	b.warmUp(w)
	var setups, lat []float64
	var cpuNS int64
	var mallocs, frames uint64
	for k := 0; k < setupReps; k++ {
		var seconds time.Duration
		if k >= setupReps-finalReps {
			seconds = b.seconds / finalReps
		}
		s, ph := b.runTestbed(w, seconds, false, "")
		setups = append(setups, s.Seconds())
		if ph != nil {
			lat = append(lat, ph.lat...)
			cpuNS += ph.b.cpuNS - ph.a.cpuNS
			mallocs += ph.b.mallocs - ph.a.mallocs
			frames += ph.b.frames - ph.a.frames
		}
	}
	fmt.Printf("# %s seed %d: %d latency samples, %d Stop calls, %d frames timed on %d testbeds\n",
		b.workload, b.seed, len(lat), len(b.stopMS), frames, finalReps)
	fmt.Printf("# setup times (s): %.4f\n", setups)
	return []metric{
		{"setup_s", fastMean(setups, 0.75), "s"},
		{"lat_p50_ms", percentile(lat, 50), "ms"},
		{"lat_p99_ms", percentile(lat, 99), "ms"},
		{"cpu_us_per_frame", float64(cpuNS) / 1e3 / float64(frames), "us/frame"},
		{"allocs_per_frame", float64(mallocs) / float64(frames), "allocs/frame"},
		{"peak_rss_mb", peakRSSMB(), "MB"},
		{"stop_p50_ms", percentile(b.stopMS, 50), "ms"},
	}
}

// warmUp builds and tears down one testbed whose figures are discarded:
// the process's first set-up pays one-time costs (code and heap pages,
// lazily built tables) that no later testbed sees. Its oracle and leak
// ledger still count.
func (b *bench) warmUp(w workload) {
	b.runTestbed(w, 0, false, "")
	b.submitMS, b.stopMS = nil, nil
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fatalf("getrusage: %v", err)
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// report prints one line per metric, then the JSON result line.
func report(metrics []metric, attempted, failed int) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0, attempted, failed, map[string]value{}}
	fmt.Printf("%-40s %14s  %s\n", "metric", "value", "unit")
	for _, m := range metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Printf("%-40s %14.4f  %s\n", m.name, v, m.unit)
		out.Metrics[m.name] = value{v, m.unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(data))
}

// percentile interpolates linearly between closest ranks; NaN when empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// fastMean is the mean of the smallest share of xs.
func fastMean(xs []float64, share float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	s = s[:max(int(share*float64(len(s))), 1)]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// Command perfbench is pathlog's benchmark. It drives the system from
// outside, through the pathlog facade and the public functions of the
// internal packages, and measures both of the paper's axes: what recording
// costs at the user site (site-record), how long the developer site needs
// to reproduce a report (reproduce), and one fleet round trip from the
// first POST /report to the refined plan served on GET /plan (report-loop).
//
// One invocation runs one workload in its own process:
//
//	bash perfbench/run.sh --workload site-record --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 they are the per-layer ones, taken
// from spans recorded around the public calls. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The metrics BENCHMARK.json names, which every workload prints. Each
// workload stresses other layers, so a per-layer work count reads 0 on a
// workload whose ops never enter that layer: that is the prediction "no
// change" for an optimisation of the layer. What a workload measures beyond
// these names goes to standard error.
var (
	endToEnd = []string{"setup_s", "op_ms_p50", "op_ms_p90", "ops_per_s", "peak_rss_mb"}
	perLayer = []string{
		"vm.steps_per_op", "vm.branch_execs_per_op",
		"instrument.instrumented_execs_per_op", "instrument.log_bits_per_op",
		"trace.flushes_per_op", "oskernel.syscalls_per_op", "oskernel.syslog_bytes_per_op",
		"replay.runs_per_op", "replay.aborts_per_op", "replay.pending_peak",
		"solver.calls_per_op", "solver.nodes_per_op", "solver.atoms_per_op", "solver.fallbacks_per_op",
		"intake.stored", "intake.deduped", "intake.refused", "intake.throttled", "intake.journal_bytes",
		"balance.generations", "balance.replay_runs",
		"ir.compile_ms", "analysis_ms", "go.alloc_bytes_per_op", "go.gc_cycles",
		"bench.self_ms_per_op", "machine.ref_ms", "trace.overhead_ratio",
	}
	// layerUnits gives the unit of each per-layer work count, which starts
	// at 0 and is set by the workloads that do the work.
	layerUnits = map[string]string{
		"vm.steps_per_op":                      "count",
		"vm.branch_execs_per_op":               "count",
		"instrument.instrumented_execs_per_op": "count",
		"instrument.log_bits_per_op":           "bits",
		"trace.flushes_per_op":                 "count",
		"oskernel.syscalls_per_op":             "count",
		"oskernel.syslog_bytes_per_op":         "bytes",
		"replay.runs_per_op":                   "count",
		"replay.aborts_per_op":                 "count",
		"replay.pending_peak":                  "count",
		"solver.calls_per_op":                  "count",
		"solver.nodes_per_op":                  "count",
		"solver.atoms_per_op":                  "count",
		"solver.fallbacks_per_op":              "count",
		"intake.stored":                        "count",
		"intake.deduped":                       "count",
		"intake.refused":                       "count",
		"intake.throttled":                     "count",
		"intake.journal_bytes":                 "bytes",
		"balance.generations":                  "count",
		"balance.replay_runs":                  "count",
	}
)

// setupRepeats is how many times a run builds its workload state from
// scratch; setup_s is the median, and the last build is the one measured.
const setupRepeats = 5

// workDir holds what a run writes: span files and the report-loop's plan
// stores and intake directories. It is relative to the checkout root.
const workDir = ".bench_build/perfbench"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state one workload run shares with its workload code.
type bench struct {
	seed    int64
	window  time.Duration
	traced  bool
	rng     *rand.Rand
	spans   *spanLog
	ref     *speedRef
	res     result
	e2e     map[string]metric
	layer   map[string]metric
	pinErrs []string
	// rss holds the window's peak resident size per stretch between
	// reference samples; nil outside the window.
	rss []float64
}

// workload builds its state (setup) and then runs ops until the window
// closes (measure). setup may be called several times; measure runs once,
// on the state of the last setup.
type workload interface {
	setup(ctx context.Context, b *bench) error
	measure(ctx context.Context, b *bench) error
}

var workloads = map[string]func() workload{
	"site-record": func() workload { return &siteRecord{} },
	"reproduce":   func() workload { return &reproduce{} },
	"report-loop": func() workload { return &reportLoop{} },
}

func main() {
	name := flag.String("workload", "", "site-record, reproduce or report-loop")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "length of the measured window")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	b := &bench{
		seed:   *seed,
		window: time.Duration(*seconds) * time.Second,
		traced: *trace == 1,
		rng:    rand.New(rand.NewSource(*seed)),
		spans:  &spanLog{},
		ref:    newSpeedRef(),
		res:    result{Correct: true},
		e2e:    map[string]metric{},
		layer:  map[string]metric{},
	}
	if err := checkClocks(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := run(context.Background(), b, *name, mk); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	out, err := json.Marshal(b.res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func run(ctx context.Context, b *bench, name string, mk func() workload) error {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	for name, unit := range layerUnits {
		b.layer[name] = metric{0, unit}
	}
	w := mk()
	var setups []time.Duration
	var setupRSS []float64
	for i := 0; i < setupRepeats; i++ {
		// Each set-up starts from a collected heap whose free memory went
		// back to the system, as a fresh process does. Without that, the
		// peak resident size crept up with each set-up, by a different
		// amount in each run.
		debug.FreeOSMemory()
		b.ref.burst()
		resetPeakRSS()
		start, spent := cpuTime(), b.ref.cpu
		if err := w.setup(ctx, b); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, cpuTime()-start-(b.ref.cpu-spent))
		setupRSS = append(setupRSS, peakRSSMB())
	}
	b.ref.burst()
	b.e2e["setup_s"] = metric{median(secondsOf(setups)) * b.ref.scale(), "s"}
	b.ref.reset()
	debug.FreeOSMemory()
	b.ref.burst()
	resetPeakRSS()
	b.rss = []float64{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := w.measure(ctx, b); err != nil {
		return fmt.Errorf("measure: %w", err)
	}
	runtime.ReadMemStats(&after)
	b.markRSS()

	// The garbage collector's timing moves a set-up's peak by up to a
	// quarter, and the window's peak likewise, so each counts with the
	// median of its parts: the set-ups, and the window's stretches.
	b.e2e["peak_rss_mb"] = metric{max(median(setupRSS), median(b.rss)), "MB"}
	ops := float64(max(b.res.Attempted, 1))
	b.layer["go.alloc_bytes_per_op"] = metric{float64(after.TotalAlloc-before.TotalAlloc) / ops, "bytes"}
	b.layer["go.gc_cycles"] = metric{float64(after.NumGC - before.NumGC), "count"}
	b.layer["machine.ref_ms"] = metric{median(b.ref.samples), "ms"}
	for _, e := range b.pinErrs {
		fmt.Fprintf(os.Stderr, "perfbench: %s: work count changed: %s\n", name, e)
	}
	if b.res.Failed > 0 || len(b.pinErrs) > 0 {
		b.res.Correct = false
	}
	var err error
	if b.traced {
		path := filepath.Join(workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, b.seed))
		if err := b.spans.write(path); err != nil {
			return err
		}
		b.res.Metrics, err = pick(b.layer, perLayer)
	} else {
		b.res.Metrics, err = pick(b.e2e, endToEnd)
	}
	return err
}

// pick returns the named metrics of all, failing if one is missing, and
// prints the rest to standard error.
func pick(all map[string]metric, names []string) (map[string]metric, error) {
	out := map[string]metric{}
	for _, n := range names {
		m, ok := all[n]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s was not measured", n)
		}
		out[n] = m
	}
	var rest []string
	for n := range all {
		if _, ok := out[n]; !ok {
			rest = append(rest, n)
		}
	}
	sort.Strings(rest)
	for _, n := range rest {
		fmt.Fprintf(os.Stderr, "perfbench: also measured: %s = %.6g %s\n", n, all[n].Value, all[n].Unit)
	}
	return out, nil
}

// check counts one op's output check.
func (b *bench) check(ok bool, format string, args ...any) {
	b.res.Attempted++
	if !ok {
		b.res.Failed++
		fmt.Fprintf(os.Stderr, "perfbench: failed op: "+format+"\n", args...)
	}
}

// pin compares an op's exact work counts with the first op on the same
// input. A timing comparison over changing work means nothing, so any
// change marks the run incorrect.
func (b *bench) pin(key string, seen map[string]string, counts string) {
	if prev, ok := seen[key]; !ok {
		seen[key] = counts
	} else if prev != counts && len(b.pinErrs) < 10 {
		b.pinErrs = append(b.pinErrs, fmt.Sprintf("%s: %s, then %s", key, prev, counts))
	}
}

// traceThis reports whether the i-th rotation of a traced run records
// spans. Traced and untraced rotations alternate, so the tracing overhead
// is measured within one process, against the same machine state.
func (b *bench) traceThis(i int) bool { return b.traced && i%2 == 1 }

// tick samples the machine's speed every refInterval and, in the window,
// closes a stretch of the resident-size record. The workloads call it
// between ops.
func (b *bench) tick() {
	if b.ref.tick() && b.rss != nil {
		b.markRSS()
	}
}

// markRSS records the peak resident size since the last mark and restarts
// the high-water mark.
func (b *bench) markRSS() {
	b.rss = append(b.rss, peakRSSMB())
	resetPeakRSS()
}

// tickIn ticks inside span sp, recording the reference sample as a child
// so that it is not counted in sp's self time.
func (b *bench) tickIn(sp *span) {
	before := b.ref.spent
	b.tick()
	if d := b.ref.spent - before; d > 0 {
		sp.child("bench.ref", d)
	}
}

// ms converts a time measured in the window, in ms, to the nominal
// machine speed (see speed.go).
func (b *bench) ms(v float64) metric { return metric{v * b.ref.scale(), "ms"} }

// latencies sets op_ms_p50 and op_ms_p90 from the ops' CPU times, and
// op_wall_ms_p50 and op_wall_ms_p90, which go to standard error, from
// their wall times as measured.
func (b *bench) latencies(cpu, wall []time.Duration) {
	ms, wallMS := msOf(cpu), msOf(wall)
	b.e2e["op_ms_p50"] = b.ms(quantile(ms, 0.5))
	b.e2e["op_ms_p90"] = b.ms(quantile(ms, 0.9))
	b.e2e["op_wall_ms_p50"] = metric{quantile(wallMS, 0.5), "ms"}
	b.e2e["op_wall_ms_p90"] = metric{quantile(wallMS, 0.9), "ms"}
}

// perSecond converts n ops done in d of window time to the nominal speed.
func (b *bench) perSecond(n int, d time.Duration) metric {
	return metric{float64(n) / (d.Seconds() * b.ref.scale()), "1/s"}
}

// overhead sets trace.overhead_ratio: the median op time of traced
// rotations over that of untraced ones.
func (b *bench) overhead(traced, untraced []time.Duration) {
	if len(traced) > 0 && len(untraced) > 0 {
		b.layer["trace.overhead_ratio"] = metric{median(msOf(traced)) / median(msOf(untraced)), "ratio"}
	}
}

func secondsOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}

// quantile interpolates linearly between the closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// resetPeakRSS makes the kernel restart the process's resident-set
// high-water mark from its current size. Where the kernel does not offer
// that, the mark keeps counting from the start of the process.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's resident-set high-water mark since the
// last resetPeakRSS. VmHWM belongs to the current program image, so the
// launcher shell that exec'd this binary does not count.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// Command mpcbench is the repository's end-to-end benchmark. It serves
// a seeded stream of circuit evaluations through the public mpc.Engine
// API (NewEngineOpts, Preprocess, Evaluate, EvaluateAsync/Wait/Flush),
// checks every result against the clear circuit, and prints the
// metrics BENCHMARK.json names: the end-to-end ones with -trace 0, the
// per-layer ones from a traced run with -trace 1. README.md says what
// each workload and metric is for.
//
// Usage, from the repository root:
//
//	bash mpcbench/run.sh --workload serve-sync-n8 --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"syscall"
	"time"

	"repro/mpc"
)

// setupReps is how many times a trace-0 run sets up; setup_s is the
// median.
const setupReps = 3

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	// workDir holds sockets and the span file; relative to the working
	// directory, which is the repository root.
	workDir string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name (see BENCHMARK.json)")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: the inputs and the engine seed derive from it")
	flag.Float64Var(&o.seconds, "seconds", 10, "serving-phase length in seconds")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.StringVar(&o.workDir, "workdir", ".bench_build", "directory for sockets and the span file")
	flag.Parse()
	w, ok := lookup(o.workload)
	if !ok || o.seconds <= 0 || (o.trace != 0 && o.trace != 1) || flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "mpcbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", names())
		os.Exit(2)
	}
	run := runEndToEnd
	if o.trace == 1 {
		run = runTraced
	}
	res, report, err := run(w, o)
	printReport(os.Stdout, w, o, report)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mpcbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mpcbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func names() []string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return ns
}

// runEndToEnd sets up setupReps times, serves on the last engine for
// the configured time and reports the end-to-end metrics.
func runEndToEnd(w spec, o options) (*result, map[string]any, error) {
	var setups []float64
	var s *session
	for rep := 0; rep < setupReps; rep++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, nil, fmt.Errorf("Close: %w", err)
			}
		}
		runtime.GC()
		var err error
		if s, err = open(w, o.seed, o.workDir, nil, nil); err != nil {
			return nil, nil, err
		}
		setups = append(setups, s.setup().Seconds())
	}
	sv, err := serve(w, s, newStream(w, o.seed), stop{d: time.Duration(o.seconds * float64(time.Second)), min: w.minEvals}, nil, nil)
	if cerr := s.close(); err == nil && cerr != nil {
		err = fmt.Errorf("Close: %w", cerr)
	}
	if err != nil {
		return nil, nil, err
	}
	k := float64(sv.attempted)
	tailP, tail := tailPercentile(sv.latMs)
	m := map[string]metric{
		"setup_s":            {median(setups), "s"},
		"eval_ms_p50":        {median(sv.latMs), "ms"},
		"eval_ms_tail":       {tail, "ms"},
		"evals_per_s":        {float64(sv.attempted-sv.failed) / sv.wall.Seconds(), "1/s"},
		"msgs_per_eval":      {float64(sv.windowMsgs) / float64(w.minEvals), "msgs"},
		"bytes_per_eval":     {float64(sv.windowBytes) / float64(w.minEvals), "bytes"},
		"vticks_per_eval":    {sv.windowVticks, "ticks"},
		"pp_msgs_per_triple": {sv.ppMsgsPerTriple, "msgs"},
		"alloc_mb_per_eval":  {float64(sv.allocBytes) / 1e6 / k, "MB"},
		"maxrss_mb":          {sv.windowRSS, "MB"},
	}
	report := map[string]any{
		"setup_s_samples":   setups,
		"eval_ms_samples":   sv.latMs,
		"evaluations":       sv.attempted,
		"failed_ratio":      float64(sv.failed) / k,
		"tail_percentile":   tailP,
		"tail_samples":      len(sv.latMs),
		"serving_s":         sv.wall.Seconds(),
		"count_window":      w.minEvals,
		"first_failure":     errString(sv.firstErr),
		"refills":           sv.refills,
		"triples_generated": sv.stats.TriplesGenerated,
	}
	return &result{Correct: sv.failed == 0, Attempted: sv.attempted, Failed: sv.failed, Metrics: m}, report, nil
}

// runTraced measures the per-layer metrics: an untraced pass serving
// exactly the count window (the baseline for the pool, pipeline, GC
// and wire figures and for the trace overhead), the same pass again
// with the attributing tracer, and the layer probes.
func runTraced(w spec, o options) (*result, map[string]any, error) {
	fixed := stop{min: w.minEvals, max: w.minEvals}
	s, err := open(w, o.seed, o.workDir, nil, nil)
	if err != nil {
		return nil, nil, err
	}
	base, err := serve(w, s, newStream(w, o.seed), fixed, nil, nil)
	if cerr := s.close(); err == nil && cerr != nil {
		err = fmt.Errorf("Close: %w", cerr)
	}
	if err != nil {
		return nil, nil, err
	}

	a := newAttributor(w)
	spans := &spanLog{origin: time.Now()}
	ts, err := open(w, o.seed, o.workDir, a, spans)
	if err != nil {
		return nil, nil, err
	}
	before := ts.eng.Stats()
	traced, err := serve(w, ts, newStream(w, o.seed), fixed, a, spans)
	t := time.Now()
	cerr := ts.close()
	spans.add("Close", 0, t, time.Now())
	if err == nil && cerr != nil {
		err = fmt.Errorf("Close: %w", cerr)
	}
	if err != nil {
		return nil, nil, err
	}
	spanPath := filepath.Join(o.workDir, "spans", fmt.Sprintf("%s-seed%d.json", w.name, o.seed))
	if err := spans.write(spanPath); err != nil {
		return nil, nil, fmt.Errorf("writing spans: %w", err)
	}

	var problems []string
	// The attribution must account for every honest message of the
	// window and the whole session, and for nearly all host time spent
	// inside the engine's serving calls.
	after := traced.stats
	var window, whole layerStats
	for _, l := range a.mods {
		window.msgs, window.bytes, window.self = window.msgs+l.msgs, window.bytes+l.bytes, window.self+l.self
	}
	for _, l := range a.phases {
		whole.msgs, whole.bytes = whole.msgs+l.msgs, whole.bytes+l.bytes
	}
	honest := func(s mpc.EngineStats) layerStats {
		return layerStats{msgs: s.EvalMessages + s.PreprocessMessages, bytes: s.EvalBytes + s.PreprocessBytes}
	}
	h0, h1 := honest(before), honest(after)
	if window.msgs != h1.msgs-h0.msgs || window.bytes != h1.bytes-h0.bytes {
		problems = append(problems, fmt.Sprintf("modules account %d messages and %d bytes, the serving window sent %d and %d",
			window.msgs, window.bytes, h1.msgs-h0.msgs, h1.bytes-h0.bytes))
	}
	if whole.msgs != h1.msgs || whole.bytes != h1.bytes {
		problems = append(problems, fmt.Sprintf("phases account %d messages and %d bytes, the session sent %d and %d",
			whole.msgs, whole.bytes, h1.msgs, h1.bytes))
	}
	inCalls := spans.total("Evaluate", "EvaluateAsync", "Wait", "Flush")
	selfShare := window.self.Seconds() / inCalls.Seconds()
	if selfShare < 0.9 || selfShare > 1.0001 {
		problems = append(problems, fmt.Sprintf("module self times cover %.3f of the %v spent in serving calls", selfShare, inCalls))
	}

	probes := runProbes(o.seed)
	for _, p := range probes {
		if !p.ok() {
			problems = append(problems, fmt.Sprintf("probe %s: %d of %d outputs, last at tick %d, bound %d",
				p.name, p.outputs, probeCfg.N, p.vticks, p.bound))
		}
	}
	oec, err := oecMicros(o.seed)
	if err != nil {
		problems = append(problems, err.Error())
	}
	interp, err := interpolateMicros(o.seed)
	if err != nil {
		problems = append(problems, err.Error())
	}
	speedup, err := parallelSpeedup(o.seed)
	if err != nil {
		problems = append(problems, err.Error())
	}

	k := float64(w.minEvals)
	m := map[string]metric{}
	for i := 0; i < modOther; i++ {
		name := modNames[i]
		m[name+".msgs_per_eval"] = metric{float64(a.mods[i].msgs) / k, "msgs"}
		m[name+".bytes_per_eval"] = metric{float64(a.mods[i].bytes) / k, "bytes"}
		m[name+".self_ms_per_eval"] = metric{ms(a.mods[i].self) / k, "ms"}
	}
	for i := 0; i < phaseOther; i++ {
		m["phase."+phaseNames[i]+".msgs"] = metric{float64(a.phases[i].msgs), "msgs"}
		m["phase."+phaseNames[i]+".self_ms"] = metric{ms(a.phases[i].self), "ms"}
	}
	m["sim.events_per_eval"] = metric{float64(base.events) / k, "events"}
	m["sim.events_per_s"] = metric{float64(base.events) / base.wall.Seconds(), "1/s"}
	m["sim.queue_depth_p50"] = metric{median(a.depths), "events"}
	m["runtime.gc_cycles_per_eval"] = metric{float64(base.gcCycles) / k, "count"}
	m["runtime.gc_pause_ms_per_eval"] = metric{ms(base.gcPause) / k, "ms"}
	m["mpc.preprocess_ms"] = metric{ms(s.preprocess), "ms"}
	m["mpc.submit_ms_p50"] = metric{median(base.submitMs), "ms"}
	m["mpc.wait_ms_p50"] = metric{median(base.waitMs), "ms"}
	m["mpc.refills"] = metric{float64(base.refills), "count"}
	m["mpc.exhaust_retries"] = metric{float64(base.stallSubmits), "count"}
	inflight := 0.0
	if len(base.waitMs) > 0 {
		inflight = base.inflightSum / float64(len(base.waitMs))
	}
	m["mpc.inflight_mean"] = metric{inflight, "count"}
	m["triples.generated"] = metric{float64(base.stats.TriplesGenerated), "count"}
	m["triples.useful_ratio"] = metric{float64(base.stats.TriplesConsumed) / float64(base.stats.TriplesGenerated), "ratio"}
	m["wire.frames_per_eval"] = metric{float64(base.wire.frames) / k, "count"}
	m["wire.bytes_per_eval"] = metric{float64(base.wire.bytes) / k, "bytes"}
	overhead := 0.0
	if base.wire.honestBytes > 0 && base.wire.bytes > 0 {
		overhead = float64(base.wire.bytes) / float64(base.wire.honestBytes)
	}
	m["wire.overhead_ratio"] = metric{overhead, "ratio"}
	m["transport.bringup_ms"] = metric{ms(s.newEngine), "ms"}
	m["obs.trace_overhead_ratio"] = metric{median(traced.latMs) / median(base.latMs), "ratio"}
	for _, p := range probes {
		m["probe."+p.name+".ms"] = metric{ms(p.wall), "ms"}
		m["probe."+p.name+".msgs"] = metric{float64(p.msgs), "msgs"}
		m["probe."+p.name+".vticks"] = metric{float64(p.vticks), "ticks"}
		m["probe."+p.name+".allocs"] = metric{float64(p.allocs), "count"}
	}
	m["probe.rs.oec_us"] = metric{oec, "us"}
	m["probe.poly.interpolate_us"] = metric{interp, "us"}
	m["probe.sim.parallel_speedup"] = metric{speedup, "ratio"}

	attempted := base.attempted + traced.attempted
	failed := base.failed + traced.failed
	firstErr := base.firstErr
	if firstErr == nil {
		firstErr = traced.firstErr
	}
	other := a.mods[modOther]
	report := map[string]any{
		"evaluations":           attempted,
		"failed_ratio":          float64(failed) / float64(attempted),
		"first_failure":         errString(firstErr),
		"other.msgs":            other.msgs,
		"other.self_ms":         ms(other.self),
		"self_share_of_calls":   selfShare,
		"spans":                 spanPath,
		"attribution_problems":  problems,
		"untraced_eval_ms_p50":  median(base.latMs),
		"traced_eval_ms_p50":    median(traced.latMs),
		"probe_bounds_in_ticks": probeBounds(probes),
	}
	ok := failed == 0 && len(problems) == 0
	return &result{Correct: ok, Attempted: attempted, Failed: failed, Metrics: m}, report, nil
}

func probeBounds(ps []probeResult) map[string]int64 {
	b := map[string]int64{}
	for _, p := range ps {
		b[p.name] = int64(p.bound)
	}
	return b
}

// printReport prints the run's configuration, host fingerprint and
// extra facts as one JSON line ahead of the result line.
func printReport(f *os.File, w spec, o options, extra map[string]any) {
	goVersion := runtime.Version()
	if bi, ok := debug.ReadBuildInfo(); ok {
		goVersion = bi.GoVersion
	}
	transport := w.transport
	if transport == "" {
		transport = "sim"
	}
	cfg := w.config(o.seed)
	rep := map[string]any{
		"host": map[string]any{
			"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": goVersion,
			"os": runtime.GOOS, "arch": runtime.GOARCH,
		},
		"config": map[string]any{
			"workload": w.name, "n": cfg.N, "ts": cfg.Ts, "ta": cfg.Ta, "delta": cfg.Delta,
			"network": string(cfg.Network), "garble": w.garble, "backend": transport, "workers": cfg.Workers,
			"depth": w.depth, "budget": w.budget, "refill_low_water": cfg.RefillLowWater, "refill_budget": cfg.RefillBudget,
			"seed": cfg.Seed, "seconds": o.seconds, "trace": o.trace,
		},
		"run": extra,
	}
	b, err := json.Marshal(map[string]any{"report": rep})
	if err != nil {
		fmt.Fprintf(os.Stderr, "mpcbench: report: %v\n", err)
		return
	}
	fmt.Fprintln(f, string(b))
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tailPercentile returns the highest percentile that has at least ten
// samples beyond it, and its value: the eleventh-largest sample, which
// is percentile 100·(k-10)/k of k samples. With ten samples or fewer
// it returns the maximum.
func tailPercentile(xs []float64) (float64, float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	k := len(s)
	if k <= 10 {
		return 100, s[k-1]
	}
	return math.Round(1000*float64(k-10)/float64(k)) / 10, s[k-11]
}

// maxRSSMB is the process's peak resident set in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

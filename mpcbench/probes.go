package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"repro/circuit"
	"repro/field"
	"repro/internal/aba"
	"repro/internal/acast"
	"repro/internal/acs"
	"repro/internal/ba"
	"repro/internal/bc"
	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/rs"
	"repro/internal/sim"
	"repro/internal/triples"
	"repro/internal/vss"
	"repro/internal/wps"
	"repro/poly"
)

// probeCfg is the flagship n=8 configuration every layer probe uses.
var probeCfg = proto.Config{N: 8, Ts: 2, Ta: 1, Delta: 10, CoinRounds: 8}

// probeResult is one serial run of one module's public entry on a fresh
// World.
type probeResult struct {
	name          string
	wall          time.Duration
	msgs, allocs  uint64
	vticks, bound sim.Time
	outputs       int
}

// ok reports whether every party produced an output within the paper's
// bound for the layer.
func (p probeResult) ok() bool { return p.outputs == probeCfg.N && p.vticks <= p.bound }

// world is a fresh synchronous World plus the output bookkeeping every
// probe shares.
type world struct {
	*proto.World
	// at[i] is the tick party i output at, -1 before it does. Each party
	// writes only its own slot, so callbacks may run on the worker pool.
	at []sim.Time
}

func newWorld(seed uint64, workers int) *world {
	w := &world{
		World: proto.NewWorld(proto.WorldOpts{Cfg: probeCfg, Network: proto.Sync, Seed: seed, Workers: workers}),
		at:    make([]sim.Time, probeCfg.N+1),
	}
	for i := range w.at {
		w.at[i] = -1
	}
	return w
}

func (w *world) output(i int) { w.at[i] = w.Sched.Now() }

// outputs returns how many parties output and the last tick one did.
func (w *world) outputs() (int, sim.Time) {
	n, last := 0, sim.Time(0)
	for _, t := range w.at[1:] {
		if t >= 0 {
			n++
			last = max(last, t)
		}
	}
	return n, last
}

// measure times build (which registers every party's instance and
// starts it) plus the run to quiescence.
func measure(name string, seed uint64, bound sim.Time, build func(w *world)) probeResult {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	w := newWorld(seed, 0)
	build(w)
	w.RunToQuiescence()
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	outputs, last := w.outputs()
	return probeResult{
		name: name, wall: wall, msgs: w.Metrics().HonestMessages(), allocs: m1.Mallocs - m0.Mallocs,
		vticks: last, bound: bound, outputs: outputs,
	}
}

func polys(r *rand.Rand, l int) []poly.Poly {
	qs := make([]poly.Poly, l)
	for i := range qs {
		qs[i] = poly.Random(r, probeCfg.Ts, field.Random(r))
	}
	return qs
}

// runProbes runs one probe per layer, from Acast up to the online
// phase, in the order the paper builds them.
func runProbes(seed uint64) []probeResult {
	cfg := probeCfg
	n := cfg.N
	coin := aba.DefaultCoin(seed)
	r := rand.New(rand.NewPCG(seed, 0x9e0b))
	var out []probeResult
	out = append(out, measure("acast", seed, 3*cfg.Delta, func(w *world) {
		var a *acast.Acast
		for i := 1; i <= n; i++ {
			x := acast.New(w.Runtimes[i], "acast", 1, cfg.Ts, func([]byte) { w.output(i) })
			if i == 1 {
				a = x
			}
		}
		a.Broadcast(make([]byte, 64))
	}))
	out = append(out, measure("bc", seed, bc.Deadline(cfg.Ts, cfg.Delta), func(w *world) {
		var b *bc.BC
		for i := 1; i <= n; i++ {
			x := bc.New(w.Runtimes[i], "bc", 1, cfg.Ts, cfg.Delta, 0, func([]byte) { w.output(i) }, nil)
			if i == 1 {
				b = x
			}
		}
		b.Broadcast(make([]byte, 64))
	}))
	out = append(out, measure("ba", seed, ba.Deadline(cfg.Ts, cfg.Delta, cfg.CoinRounds), func(w *world) {
		for i := 1; i <= n; i++ {
			ba.New(w.Runtimes[i], "ba", cfg.Ts, cfg.Delta, 0, coin, func(uint8) { w.output(i) }).Start(uint8(i % 2))
		}
	}))
	wpsIn := polys(r, 4)
	out = append(out, measure("wps", seed, wps.Deadline(cfg), func(w *world) {
		var d *wps.WPS
		for i := 1; i <= n; i++ {
			x := wps.New(w.Runtimes[i], "wps", 1, len(wpsIn), cfg, coin, 0, func([]field.Element) { w.output(i) })
			if i == 1 {
				d = x
			}
		}
		d.Start(wpsIn)
	}))
	vssIn := polys(r, 4)
	out = append(out, measure("vss", seed, vss.Deadline(cfg), func(w *world) {
		var d *vss.VSS
		for i := 1; i <= n; i++ {
			x := vss.New(w.Runtimes[i], "vss", 1, len(vssIn), cfg, coin, 0, func([]field.Element) { w.output(i) })
			if i == 1 {
				d = x
			}
		}
		d.Start(vssIn)
	}))
	acsIn := make([][]poly.Poly, n+1)
	for i := 1; i <= n; i++ {
		acsIn[i] = polys(r, 1)
	}
	out = append(out, measure("acs", seed, acs.Deadline(cfg), func(w *world) { startACS(w, coin, acsIn) }))
	out = append(out, measure("preprocessing", seed, triples.PreprocessingDeadline(cfg), func(w *world) {
		pp := make([]*triples.Preprocessing, n+1)
		for i := 1; i <= n; i++ {
			pp[i] = triples.NewPreprocessing(w.Runtimes[i], "pp", 1, cfg, coin, 0, func([]triples.Triple) { w.output(i) })
		}
		for i := 1; i <= n; i++ {
			pp[i].Start()
		}
	}))
	circ := circuit.MulGrid(n, 8, 8)
	inShares, cs, trips := dealOnline(r, circ)
	out = append(out, measure("online", seed, sim.Time(circ.MulDepth+3)*cfg.Delta, func(w *world) {
		evs := make([]*core.CirEval, n+1)
		for i := 1; i <= n; i++ {
			evs[i] = core.NewOnline(w.Runtimes[i], "mpc", circ, cfg, 0, core.EvalLayered, func([]field.Element) { w.output(i) })
		}
		for i := 1; i <= n; i++ {
			evs[i].StartOnline(inShares[i], cs, trips[i])
		}
	}))
	return out
}

func startACS(w *world, coin aba.CoinSource, in [][]poly.Poly) {
	insts := make([]*acs.ACS, probeCfg.N+1)
	for i := 1; i <= probeCfg.N; i++ {
		insts[i] = acs.New(w.Runtimes[i], "acs", 1, probeCfg, coin, 0, func([]int, map[int][]field.Element) { w.output(i) })
	}
	for i := 1; i <= probeCfg.N; i++ {
		insts[i].Start(in[i])
	}
}

// dealOnline deals input sharings and multiplication triples locally,
// so the online probe measures the evaluation phase alone.
func dealOnline(r *rand.Rand, circ *circuit.Circuit) ([]map[int][]field.Element, []int, [][]triples.Triple) {
	n, ts := probeCfg.N, probeCfg.Ts
	inShares := make([]map[int][]field.Element, n+1)
	cs := make([]int, n)
	for i := 1; i <= n; i++ {
		inShares[i] = make(map[int][]field.Element, n)
		cs[i-1] = i
	}
	for j := 1; j <= n; j++ {
		sh := poly.Random(r, ts, field.Random(r)).Shares(n)
		for i := 1; i <= n; i++ {
			inShares[i][j] = []field.Element{sh[i-1]}
		}
	}
	trips := make([][]triples.Triple, n+1)
	for i := 1; i <= n; i++ {
		trips[i] = make([]triples.Triple, circ.MulCount)
	}
	for k := 0; k < circ.MulCount; k++ {
		a, b := field.Random(r), field.Random(r)
		sa := poly.Random(r, ts, a).Shares(n)
		sb := poly.Random(r, ts, b).Shares(n)
		sc := poly.Random(r, ts, a.Mul(b)).Shares(n)
		for i := 1; i <= n; i++ {
			trips[i][k] = triples.Triple{X: sa[i-1], Y: sb[i-1], Z: sc[i-1]}
		}
	}
	return inShares, cs, trips
}

// parallelSpeedup is the ACS probe's wall time with the worker pool
// off over its wall time with one worker per CPU.
func parallelSpeedup(seed uint64) (float64, error) {
	r := rand.New(rand.NewPCG(seed, 0x9a4))
	in := make([][]poly.Poly, probeCfg.N+1)
	for i := 1; i <= probeCfg.N; i++ {
		in[i] = polys(r, 1)
	}
	coin := aba.DefaultCoin(seed)
	run := func(workers int) (time.Duration, error) {
		runtime.GC()
		t0 := time.Now()
		w := newWorld(seed, workers)
		startACS(w, coin, in)
		w.RunToQuiescence()
		d := time.Since(t0)
		if n, _ := w.outputs(); n != probeCfg.N {
			return d, fmt.Errorf("ACS at %d workers: %d of %d parties output", workers, n, probeCfg.N)
		}
		return d, nil
	}
	serial, err := run(0)
	if err != nil {
		return 0, err
	}
	par, err := run(runtime.NumCPU())
	return float64(serial) / float64(par), err
}

// oecMicros is the mean host µs of one online error correction of a
// degree-ts sharing with ts wrong shares among n points, the case that
// needs the Berlekamp–Welch solve.
func oecMicros(seed uint64) (float64, error) {
	const reps = 2000
	n, ts := probeCfg.N, probeCfg.Ts
	r := rand.New(rand.NewPCG(seed, 0x0ec))
	secret := field.Random(r)
	shares := poly.Random(r, ts, secret).Shares(n)
	for k := 0; k < ts; k++ {
		shares[n-1-k] = shares[n-1-k].Add(field.New(1))
	}
	t0 := time.Now()
	for rep := 0; rep < reps; rep++ {
		o := rs.NewOEC(ts, ts)
		for i := 1; i <= n; i++ {
			o.Add(poly.Alpha(i), shares[i-1])
		}
		q, ok := o.Poll()
		if !ok || q.Eval(0) != secret {
			return 0, fmt.Errorf("OEC did not recover the secret")
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e3 / reps, nil
}

// interpolateMicros is the mean host µs of one Lagrange interpolation
// through n points.
func interpolateMicros(seed uint64) (float64, error) {
	const reps = 20000
	n := probeCfg.N
	r := rand.New(rand.NewPCG(seed, 0x1e7))
	p := poly.Random(r, n-1, field.Random(r))
	pts := make([]poly.Point, n)
	for i := range pts {
		pts[i] = poly.Point{X: poly.Alpha(i + 1), Y: p.Eval(poly.Alpha(i + 1))}
	}
	t0 := time.Now()
	for rep := 0; rep < reps; rep++ {
		q, err := poly.Interpolate(pts)
		if err != nil {
			return 0, err
		}
		if rep == 0 && !q.Equal(p) {
			return 0, fmt.Errorf("interpolation did not recover the polynomial")
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e3 / reps, nil
}

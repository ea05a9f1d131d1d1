package main

import (
	"math/rand/v2"

	"repro/circuit"
	"repro/field"
	"repro/mpc"
)

// spec is one benchmark workload: a closed loop from one client against
// one engine. README.md records why each workload exists and which
// layers it is meant to stress.
type spec struct {
	name      string
	n, ts, ta int
	network   mpc.Network
	// garble lists corrupt parties that send byte-flipped garbage.
	garble []int
	// transport is "" for the in-memory simulator or "unix".
	transport string
	// depth 0 serves with sequential Evaluate; depth > 0 keeps that
	// many EvaluateAsync submissions in flight and waits FIFO.
	depth int
	// budget is the setup Preprocess budget. On sequential workloads it
	// also caps the serving phase: serving stops when the pool cannot
	// cover the next request.
	budget int
	// lowWater and refillBudget arm background refills (pipelined only).
	lowWater, refillBudget int
	// gridW x gridD is the shape of the MulGrid circuit in the stream.
	gridW, gridD int
	// minEvals is the count window: every run serves at least this many
	// evaluations, and the count metrics are taken over exactly these,
	// so they repeat for a seed whatever the host speed. The traced run
	// serves exactly minEvals.
	minEvals int
}

var workloads = []spec{
	{
		name: "serve-sync-n8", n: 8, ts: 2, ta: 1, network: mpc.Sync,
		budget: 160, gridW: 2, gridD: 2, minEvals: 24,
	},
	{
		name: "pipeline-refill-n5", n: 5, ts: 1, ta: 1, network: mpc.Sync,
		depth: 4, budget: 40, lowWater: 24, refillBudget: 48,
		gridW: 4, gridD: 4, minEvals: 40,
	},
	{
		name: "async-fallback-n5", n: 5, ts: 1, ta: 1, network: mpc.Async,
		garble: []int{2}, budget: 560, gridW: 2, gridD: 2, minEvals: 60,
	},
	{
		name: "serve-unix-n5", n: 5, ts: 1, ta: 1, network: mpc.Sync,
		transport: "unix", budget: 180, gridW: 2, gridD: 2, minEvals: 24,
	},
}

func lookup(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

func (w spec) config(seed uint64) mpc.Config {
	return mpc.Config{
		N: w.n, Ts: w.ts, Ta: w.ta, Network: w.network, Delta: 10, Seed: seed,
		RefillLowWater: w.lowWater, RefillBudget: w.refillBudget,
	}
}

func (w spec) adversary() *mpc.Adversary {
	if len(w.garble) == 0 {
		return nil
	}
	return &mpc.Adversary{Garble: w.garble}
}

func (w spec) corrupt(i int) bool {
	for _, p := range w.garble {
		if p == i {
			return true
		}
	}
	return false
}

// stream is the seeded request generator: it rotates product, stats and
// mul-grid circuits and draws every party's input from the seed. The
// rotation itself is the same for every seed, so every seed asks the
// pool for the same triples in the same order and the refill cycle of
// the pipelined workload does not shift with the seed.
type stream struct {
	circs []*circuit.Circuit
	next  int
	rng   *rand.Rand
	n     int
}

func newStream(w spec, seed uint64) *stream {
	return &stream{
		circs: []*circuit.Circuit{
			circuit.Product(w.n),
			circuit.SumAndVariancePieces(w.n),
			circuit.MulGrid(w.n, w.gridW, w.gridD),
		},
		rng: rand.New(rand.NewPCG(seed, 0x5eed)),
		n:   w.n,
	}
}

// peek returns the circuit of the next request without drawing it.
func (s *stream) peek() *circuit.Circuit { return s.circs[s.next%len(s.circs)] }

func (s *stream) draw() (*circuit.Circuit, []field.Element) {
	c := s.peek()
	s.next++
	in := make([]field.Element, s.n)
	for i := range in {
		in[i] = field.Random(s.rng)
	}
	return c, in
}

package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"sort"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the program's output must
// agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// short shrinks a workload to a few evaluations for the tests.
func short(w spec) spec {
	if w.depth > 0 {
		w.minEvals = 2 * w.depth
		return w
	}
	w.minEvals = 3
	w.budget = 30
	return w
}

func shortOptions(t *testing.T, seconds float64, trace int) options {
	return options{seed: 7, seconds: seconds, trace: trace, workDir: t.TempDir()}
}

func sameNames(t *testing.T, what string, got map[string]metric, want []string, units []string) {
	t.Helper()
	var names []string
	for k := range got {
		names = append(names, k)
	}
	sort.Strings(names)
	w := slices.Clone(want)
	sort.Strings(w)
	if !slices.Equal(names, w) {
		t.Errorf("%s metric names differ from BENCHMARK.json:\n got %v\nwant %v", what, names, w)
	}
	for i, n := range want {
		if m, ok := got[n]; ok && m.Unit != units[i] {
			t.Errorf("%s: unit %q, BENCHMARK.json says %q", n, m.Unit, units[i])
		}
	}
}

func TestWorkloadNamesMatchBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	var got []string
	for _, w := range f.Workloads {
		got = append(got, w.Name)
	}
	if !slices.Equal(got, names()) {
		t.Fatalf("BENCHMARK.json workloads %v, mpcbench has %v", got, names())
	}
}

// TestShortEndToEnd runs every workload for a few evaluations and
// checks the result and the metric names and units.
func TestShortEndToEnd(t *testing.T) {
	f := readBenchmarkFile(t)
	var want, units []string
	for _, m := range f.EndToEnd {
		want, units = append(want, m.Name), append(units, m.Unit)
	}
	for _, w := range workloads {
		w := short(w)
		t.Run(w.name, func(t *testing.T) {
			res, _, err := runEndToEnd(w, shortOptions(t, 0.01, 0))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < w.minEvals {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			sameNames(t, w.name, res.Metrics, want, units)
			for name, m := range res.Metrics {
				if m.Value <= 0 || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %v, want a positive number", name, m.Value)
				}
			}
		})
	}
}

// TestShortTraced runs the traced pass of every workload, which also
// checks the attribution sums and every probe's paper bound.
func TestShortTraced(t *testing.T) {
	f := readBenchmarkFile(t)
	var want, units []string
	for _, m := range f.PerLayer {
		want, units = append(want, m.Name), append(units, m.Unit)
	}
	for _, w := range workloads {
		w := short(w)
		t.Run(w.name, func(t *testing.T) {
			res, report, err := runTraced(w, shortOptions(t, 0.01, 1))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("correct=%v failed=%d, report %v", res.Correct, res.Failed, report)
			}
			sameNames(t, w.name, res.Metrics, want, units)
		})
	}
}

// TestDeterminism checks that the count metrics repeat exactly for one
// seed, even when the two runs serve for different lengths.
func TestDeterminism(t *testing.T) {
	counts := []string{"msgs_per_eval", "bytes_per_eval", "vticks_per_eval", "pp_msgs_per_triple"}
	for _, w := range workloads {
		w := short(w)
		t.Run(w.name, func(t *testing.T) {
			a, _, err := runEndToEnd(w, shortOptions(t, 0.01, 0))
			if err != nil {
				t.Fatal(err)
			}
			b, _, err := runEndToEnd(w, shortOptions(t, 1, 0))
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range counts {
				if a.Metrics[c] != b.Metrics[c] {
					t.Errorf("%s: %v, then %v on the same seed", c, a.Metrics[c].Value, b.Metrics[c].Value)
				}
			}
		})
	}
}

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	p, v := tailPercentile(xs)
	if p != 75 || v != 30 {
		t.Fatalf("tailPercentile of 1..40 = p%v %v, want p75 30", p, v)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		inst       string
		mod, phase int
	}{
		{"pool/b0/vacs/vss/3/wps/2/c/ba/bc/1/sba", modSBA, phasePreprocess},
		{"pool/b0/ts/1/g/2/3", modTriples, phasePreprocess},
		{"mpc/e4/in/vss/2/wps/1/c/late/3/4", modAcast, phaseInputACS},
		{"mpc/e4/in/vss/2/wps/1/c/star", modGraph, phaseInputACS},
		{"mpc/e4/in/ba/1/aba", modABA, phaseInputACS},
		{"mpc/e4/in/vss/2", modVSS, phaseInputACS},
		{"mpc/e4/in/vss/2/wps/1", modWPS, phaseInputACS},
		{"mpc/e4/lay/1/rec", modCore, phaseOnline},
		{"mpc/e4", modCore, phaseOnline},
		{"acast", modAcast, phaseOther},
	}
	for _, c := range cases {
		if m, p := classify(c.inst); m != c.mod || p != c.phase {
			t.Errorf("classify(%q) = %s/%s, want %s/%s", c.inst, modNames[m], phaseNames[p], modNames[c.mod], phaseNames[c.phase])
		}
	}
}

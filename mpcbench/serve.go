package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/circuit"
	"repro/field"
	"repro/mpc"
)

// session is one engine with the bookkeeping of its setup.
type session struct {
	eng *mpc.Engine
	// newEngine and preprocess time the two halves of setup.
	newEngine, preprocess time.Duration
	// sockDir is the socket directory of a unix engine ("" on the sim).
	sockDir string
}

func (s *session) setup() time.Duration { return s.newEngine + s.preprocess }

func (s *session) close() error {
	err := s.eng.Close()
	if s.sockDir != "" {
		if rerr := os.RemoveAll(s.sockDir); err == nil {
			err = rerr
		}
	}
	return err
}

// open runs setup: NewEngineOpts plus the first Preprocess, including
// socket bring-up on unix. Socket paths are relative to the working
// directory, so they stay inside the checkout and short enough for
// the kernel's socket-path limit.
func open(w spec, seed uint64, workDir string, a *attributor, spans *spanLog) (*session, error) {
	opts := mpc.EngineOptions{Adversary: w.adversary()}
	if a != nil {
		opts.Tracer = a
	}
	s := &session{}
	if w.transport != "" {
		if err := os.MkdirAll(workDir, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(workDir, "sock")
		if err != nil {
			return nil, err
		}
		if wd, err := os.Getwd(); err == nil {
			if rel, err := filepath.Rel(wd, dir); err == nil {
				dir = rel
			}
		}
		s.sockDir = dir
		opts.Transport = &mpc.TransportSpec{Kind: w.transport, Dir: dir}
	}
	t0 := time.Now()
	eng, err := mpc.NewEngineOpts(w.config(seed), opts)
	t1 := time.Now()
	spans.add("NewEngineOpts", 0, t0, t1)
	if err != nil {
		if s.sockDir != "" {
			os.RemoveAll(s.sockDir)
		}
		return nil, fmt.Errorf("NewEngineOpts: %w", err)
	}
	s.eng = eng
	_, err = eng.Preprocess(w.budget)
	t2 := time.Now()
	spans.add("Preprocess", 0, t1, t2)
	a.pause()
	if err != nil {
		s.close()
		return nil, fmt.Errorf("Preprocess: %w", err)
	}
	s.newEngine, s.preprocess = t1.Sub(t0), t2.Sub(t1)
	return s, nil
}

// stop decides when a serving phase ends: after d, but not before min
// evaluations, and never beyond max (0 = no cap).
type stop struct {
	d        time.Duration
	min, max int
}

func (s stop) more(done int, elapsed time.Duration) bool {
	if s.max > 0 && done >= s.max {
		return false
	}
	return done < s.min || elapsed < s.d
}

// serving is what one serving phase measured.
type serving struct {
	attempted, failed int
	firstErr          error
	// latMs is host ms from submit to result, per evaluation.
	latMs, submitMs, waitMs []float64
	wall                    time.Duration
	// Count window (the first minEvals evaluations).
	windowMsgs, windowBytes uint64
	windowVticks            float64
	ppMsgsPerTriple         float64
	// windowRSS is the process's peak resident MB when the window ends,
	// so it does not grow with the evaluations a fast host adds after.
	windowRSS float64
	// Whole serving phase.
	events, allocBytes, gcCycles uint64
	gcPause                      time.Duration
	wire                         wireDelta
	stallSubmits                 int
	inflightSum                  float64
	refills                      int
	stats                        mpc.EngineStats
}

type wireDelta struct{ frames, bytes, honestBytes uint64 }

type request struct {
	circ   *circuit.Circuit
	inputs []field.Element
	begin  time.Time
	p      *mpc.PendingEval
}

// serve runs the closed loop against s until st says stop, checking
// every result. It leaves the engine quiescent.
func serve(w spec, s *session, str *stream, st stop, a *attributor, spans *spanLog) (*serving, error) {
	eng := s.eng
	out := &serving{}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	stats0 := eng.Stats()
	wire0 := eng.WireStats()
	a.beginWindow()
	begin := time.Now()
	var window *mpc.EngineStats
	record := func(r *request, res *mpc.Result, err error) {
		lat := time.Since(r.begin)
		out.attempted++
		out.latMs = append(out.latMs, ms(lat))
		if cerr := check(w, r.circ, r.inputs, res, err); cerr != nil {
			out.failed++
			if out.firstErr == nil {
				out.firstErr = fmt.Errorf("evaluation %d: %w", out.attempted, cerr)
			}
		}
		if out.attempted <= w.minEvals && res != nil {
			out.windowMsgs += res.HonestMessages
			out.windowBytes += res.HonestBytes
		}
		if out.attempted == w.minEvals {
			st := eng.Stats()
			window = &st
			out.windowRSS = maxRSSMB()
		}
	}
	if w.depth == 0 {
		for st.more(out.attempted, time.Since(begin)) && eng.Available() >= str.peek().MulCount {
			c, in := str.draw()
			r := &request{circ: c, inputs: in, begin: time.Now()}
			res, err := eng.Evaluate(c, in)
			spans.add("Evaluate", out.attempted+1, r.begin, time.Now())
			a.pause()
			record(r, res, err)
		}
	} else {
		// Submissions run at least through the count window's last one,
		// so the window's history does not depend on host speed.
		sub := st
		sub.min = max(st.min, w.minEvals+w.depth-1)
		var queue []*request
		submitted := 0
		for {
			for len(queue) < w.depth && sub.more(submitted, time.Since(begin)) {
				c, in := str.draw()
				if eng.Available() < c.MulCount {
					out.stallSubmits++
				}
				r := &request{circ: c, inputs: in, begin: time.Now()}
				p, err := eng.EvaluateAsync(c, in)
				submit := time.Since(r.begin)
				spans.add("EvaluateAsync", submitted+1, r.begin, r.begin.Add(submit))
				a.pause()
				submitted++
				if err != nil {
					record(r, nil, err)
					continue
				}
				r.p = p
				out.submitMs = append(out.submitMs, ms(submit))
				queue = append(queue, r)
			}
			if len(queue) == 0 {
				break
			}
			r := queue[0]
			queue = queue[1:]
			out.inflightSum += float64(eng.InFlight())
			t := time.Now()
			res, err := r.p.Wait()
			out.waitMs = append(out.waitMs, ms(time.Since(t)))
			spans.add("Wait", out.attempted+1, t, time.Now())
			a.pause()
			record(r, res, err)
		}
	}
	out.wall = time.Since(begin)
	t := time.Now()
	err := eng.Flush()
	spans.add("Flush", 0, t, time.Now())
	a.endWindow()
	if err != nil {
		return nil, fmt.Errorf("Flush: %w", err)
	}
	runtime.ReadMemStats(&m1)
	out.stats = eng.Stats()
	out.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	out.gcCycles = uint64(m1.NumGC - m0.NumGC)
	out.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	out.events = out.stats.Events - stats0.Events
	out.refills = out.stats.Batches - stats0.Batches
	wire1 := eng.WireStats()
	out.wire = wireDelta{
		frames:      wire1.FramesOut - wire0.FramesOut,
		bytes:       wire1.BytesOut - wire0.BytesOut,
		honestBytes: out.stats.EvalBytes + out.stats.PreprocessBytes - stats0.EvalBytes - stats0.PreprocessBytes,
	}
	if window == nil {
		return nil, fmt.Errorf("served %d evaluations, fewer than the count window of %d (pool budget %d too small?)",
			out.attempted, w.minEvals, w.budget)
	}
	// Virtual span of the count window: from the first evaluation's
	// start to the last termination among the window's evaluations.
	evs := window.Evals[len(stats0.Evals):]
	first, last := evs[0].StartTick, int64(0)
	for _, e := range evs {
		first = min(first, e.StartTick)
		last = max(last, e.EndTick)
	}
	out.windowVticks = float64(last-first) / float64(len(evs))
	if window.TriplesGenerated > 0 {
		out.ppMsgsPerTriple = float64(window.PreprocessMessages) / float64(window.TriplesGenerated)
	}
	return out, nil
}

// check verifies one evaluation: no error, outputs equal to the clear
// circuit on the agreed input set, every honest party terminated with
// the same outputs, a large enough input set, and on a synchronous
// network the last honest termination within Result.Deadline.
func check(w spec, c *circuit.Circuit, in []field.Element, res *mpc.Result, err error) error {
	if err != nil {
		return err
	}
	if len(res.CS) < w.n-w.ts {
		return fmt.Errorf("input set %v smaller than n-ts = %d", res.CS, w.n-w.ts)
	}
	want, err := mpc.ExpectedOutputs(c, in, res.CS)
	if err != nil {
		return err
	}
	if !equal(res.Outputs, want) {
		return fmt.Errorf("outputs %v, clear circuit gives %v", res.Outputs, want)
	}
	var lastTerm int64
	for i := 1; i <= w.n; i++ {
		if w.corrupt(i) {
			continue
		}
		if !equal(res.PerParty[i], want) {
			return fmt.Errorf("honest party %d output %v, want %v", i, res.PerParty[i], want)
		}
		lastTerm = max(lastTerm, res.TerminatedAt[i])
	}
	if w.network == mpc.Sync && lastTerm > res.Deadline {
		return fmt.Errorf("last honest termination at tick %d, after the deadline %d", lastTerm, res.Deadline)
	}
	return nil
}

func equal(a, b []field.Element) bool {
	if a == nil || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

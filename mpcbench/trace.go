package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/obs"
)

// Layers of the attribution, named by the module whose handler a
// delivered instance path reaches.
const (
	modAcast = iota
	modSBA
	modABA
	modWPS
	modVSS
	modGraph
	modTriples
	modCore
	modOther
	numMods
)

var modNames = [numMods]string{"acast", "sba", "aba", "wps", "vss", "graph", "triples", "core", "other"}

// Phases split the same events by instance owner.
const (
	phasePreprocess = iota
	phaseInputACS
	phaseOnline
	phaseOther
	numPhases
)

var phaseNames = [numPhases]string{"preprocess", "input_acs", "online", "other"}

type layerStats struct {
	msgs, bytes uint64
	self        time.Duration
}

// attributor is the benchmark's obs.Tracer. It keeps no events: it
// charges each honest send to the sender's instance module and phase,
// and the host time from one deliver or timer event to the next to the
// earlier event's module. A timer carries no instance path, so it is
// charged to the module of the first message it sends, or to "other".
// Module figures cover the serving window only; phase figures cover the
// whole session, setup included.
type attributor struct {
	corrupt []bool

	open             bool
	since            time.Time
	curMod, curPhase int
	timerPending     bool

	serving bool
	mods    [numMods]layerStats
	phases  [numPhases]layerStats
	// depths holds the queue depth at each tick entry of the serving
	// window.
	depths []float64
}

func newAttributor(w spec) *attributor {
	a := &attributor{corrupt: make([]bool, w.n+1)}
	for _, p := range w.garble {
		a.corrupt[p] = true
	}
	return a
}

// Emit implements obs.Tracer.
func (a *attributor) Emit(ev obs.Event) {
	switch ev.Kind {
	case obs.KSend:
		m, p := classify(ev.Inst)
		if a.timerPending {
			a.curMod, a.curPhase, a.timerPending = m, p, false
		}
		if ev.Party >= 0 && ev.Party < len(a.corrupt) && a.corrupt[ev.Party] {
			return
		}
		a.phases[p].msgs++
		a.phases[p].bytes += uint64(ev.Bytes)
		if a.serving {
			a.mods[m].msgs++
			a.mods[m].bytes += uint64(ev.Bytes)
		}
	case obs.KDeliver:
		now := time.Now()
		a.charge(now)
		a.curMod, a.curPhase = classify(ev.Inst)
		a.open, a.since = true, now
	case obs.KTimer:
		now := time.Now()
		a.charge(now)
		a.curMod, a.curPhase = modOther, phaseOther
		a.open, a.since, a.timerPending = true, now, true
	case obs.KTick:
		if a.serving {
			a.depths = append(a.depths, float64(ev.A))
		}
	}
}

// charge closes the open event interval at now.
func (a *attributor) charge(now time.Time) {
	if !a.open {
		return
	}
	d := now.Sub(a.since)
	a.phases[a.curPhase].self += d
	if a.serving {
		a.mods[a.curMod].self += d
	}
	a.open, a.timerPending = false, false
}

// pause closes the open interval at the end of a public call, so
// benchmark code between calls is charged to no layer. The window
// methods bracket the serving phase. All three are no-ops on nil.
func (a *attributor) pause() {
	if a != nil {
		a.charge(time.Now())
	}
}

func (a *attributor) beginWindow() { a.setServing(true) }
func (a *attributor) endWindow()   { a.setServing(false) }

func (a *attributor) setServing(on bool) {
	if a != nil {
		a.charge(time.Now())
		a.serving = on
	}
}

// classify maps an instance path to its leaf module and owning phase.
// The leaf module is the deepest path component that names one:
// "acast" (and the "late" announcements, which are Acast instances),
// "sba", "aba", "wps", "vss", and "star" for the WPS star broadcast,
// whose delivery runs the star check of internal/graph. Paths with no
// such component are triple generation under "pool/" and the online
// evaluator under "mpc/".
func classify(inst string) (mod, phase int) {
	phase = phaseOther
	switch {
	case strings.HasPrefix(inst, "pool/"):
		phase = phasePreprocess
	case strings.HasPrefix(inst, "mpc/"):
		phase = phaseOnline
		rest := inst[len("mpc/"):]
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[i+1:]
			if rest == "in" || strings.HasPrefix(rest, "in/") {
				phase = phaseInputACS
			}
		}
	}
	for s := inst; s != ""; {
		comp := s
		if i := strings.LastIndexByte(s, '/'); i >= 0 {
			comp, s = s[i+1:], s[:i]
		} else {
			s = ""
		}
		switch comp {
		case "acast", "late":
			return modAcast, phase
		case "sba":
			return modSBA, phase
		case "aba":
			return modABA, phase
		case "wps":
			return modWPS, phase
		case "vss":
			return modVSS, phase
		case "star":
			return modGraph, phase
		}
	}
	switch phase {
	case phasePreprocess:
		return modTriples, phase
	case phaseInputACS, phaseOnline:
		return modCore, phase
	}
	return modOther, phase
}

// span is one public API call of the traced run.
type span struct {
	Name    string `json:"name"`
	Request int    `json:"request,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanLog keeps the spans of the traced run in memory; a nil log
// records nothing.
type spanLog struct {
	origin time.Time
	spans  []span
}

func (l *spanLog) add(name string, req int, start, end time.Time) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{name, req, start.Sub(l.origin).Nanoseconds(), end.Sub(l.origin).Nanoseconds()})
}

// total sums the durations of the spans named in names.
func (l *spanLog) total(names ...string) time.Duration {
	var d int64
	for _, s := range l.spans {
		for _, n := range names {
			if s.Name == n {
				d += s.EndNs - s.StartNs
			}
		}
	}
	return time.Duration(d)
}

func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(l.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

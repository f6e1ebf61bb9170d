package scenario

import (
	"fmt"
	"strconv"
	"strings"

	"mptcpsim/internal/core"
	"mptcpsim/internal/sim"
)

// maxTracePrealloc bounds the samples a Trace reserves room for up front.
const maxTracePrealloc = 1 << 16

// TraceReport is the sampled series of a Spec.Trace: T[k] is the time of
// sample k and V[i][k] the value of Probes[i] then.
type TraceReport struct {
	T []sim.Time  `json:"t"`
	V [][]float64 `json:"v"`
}

// probeRef is one parsed TraceSpec probe: its kind and the subflow it
// reads, by index into Spec.Flows, the group's replicas and its Paths.
type probeRef struct {
	kind                 string
	group, replica, path int
}

// validateTrace checks Spec.Trace: a period of at least a nanosecond and at
// most MaxSpecSec, and every probe in the closed vocabulary on a subflow
// the spec has.
func (sp *Spec) validateTrace() error {
	tr := sp.Trace
	if tr == nil {
		return nil
	}
	if !(tr.PeriodMs > 0 && tr.PeriodMs <= MaxSpecSec*1e3) || sim.Millis(tr.PeriodMs) <= 0 {
		return fmt.Errorf("scenario %q: trace period %g ms outside [1 ns, %g s]", sp.Name, tr.PeriodMs, float64(MaxSpecSec))
	}
	for _, p := range tr.Probes {
		if _, err := sp.probe(p); err != nil {
			return fmt.Errorf("scenario %q: %w", sp.Name, err)
		}
	}
	return nil
}

// probe parses one TraceSpec probe, "<kind> <group> <replica> <path>",
// against the spec's flows. Fields are separated by one space and indices
// written in decimal without sign or padding, so one probe has one
// spelling and one encoding.
func (sp *Spec) probe(s string) (probeRef, error) {
	f := strings.Split(s, " ")
	if len(f) != 4 {
		return probeRef{}, fmt.Errorf("trace probe %q: want \"<kind> <group> <replica> <path>\"", s)
	}
	p := probeRef{kind: f[0], group: -1}
	switch p.kind {
	case "cwnd", "srtt", "alpha", "ell":
	default:
		return p, fmt.Errorf("trace probe %q: unknown kind %q (have cwnd, srtt, alpha, ell)", s, p.kind)
	}
	for i := range sp.Flows {
		if sp.Flows[i].Name == f[1] {
			p.group = i
			break
		}
	}
	if p.group < 0 {
		return p, fmt.Errorf("trace probe %q: no flow group %q", s, f[1])
	}
	fs := &sp.Flows[p.group]
	p.replica, p.path = index(f[2]), index(f[3])
	if p.replica < 0 || p.replica >= fs.count() || p.path < 0 || p.path >= len(fs.Paths) {
		return p, fmt.Errorf("trace probe %q: group %q has %d replicas over %d paths", s, f[1], fs.count(), len(fs.Paths))
	}
	if _, olia := core.New(fs.Algorithm).(*core.OLIA); (p.kind == "alpha" || p.kind == "ell") && !olia {
		return p, fmt.Errorf("trace probe %q: %s flows have no α or ℓ", s, fs.Algorithm)
	}
	return p, nil
}

// index parses a canonical decimal index, or returns -1.
func index(s string) int {
	v, err := strconv.Atoi(s)
	if err != nil || strconv.Itoa(v) != s {
		return -1
	}
	return v
}

// probes builds the Probes of a validated spec's Spec.Trace, named by
// their TraceSpec text.
//
//simlint:cold
func (n *Net) probes(sp *Spec) []Probe {
	out := make([]Probe, len(sp.Trace.Probes))
	for i, s := range sp.Trace.Probes {
		p, err := sp.probe(s)
		if err != nil {
			panic(err) // a compiled spec cannot get here: Validate vetted it
		}
		f := n.Groups[p.group][p.replica]
		out[i].Name = s
		switch src := f.Srcs[p.path]; p.kind {
		case "cwnd":
			out[i].Fn = src.CwndPkts
		case "srtt":
			out[i].Fn = src.SRTT
		case "alpha":
			o := f.Conn.Controller().(*core.OLIA)
			out[i].Fn = func() float64 { return o.Alpha(p.path) }
		default: // ell
			o := f.Conn.Controller().(*core.OLIA)
			out[i].Fn = func() float64 { return o.Ell(p.path) }
		}
	}
	return out
}

// Probe is one named observation a Trace samples.
type Probe struct {
	Name string
	Fn   func() float64
}

// Trace is the sampled series of a set of probes: Net.Run samples every
// probe at t = 0, period, 2·period, … up to Net.End. T is the shared time
// column and V[i] the values of the probe called Names[i].
type Trace struct {
	Names []string
	T     []sim.Time
	V     [][]float64

	net    *Net
	period sim.Time
	probes []Probe
}

// Trace registers probes to be sampled every period while n runs and
// returns their series, filled in as Run advances. It panics on a
// nonpositive period, and once Run has started: a trace is part of the run,
// armed with it. Like the invariant monitor, sampling schedules its own
// events but draws no randomness and touches no packet, so a traced run
// reaches the untraced run's digest with one more processed event per
// sample.
func (n *Net) Trace(period sim.Time, probes ...Probe) *Trace {
	if period <= 0 {
		panic(fmt.Sprintf("scenario: trace period %v not positive", period))
	}
	if n.running {
		panic("scenario: Trace after Run started")
	}
	// A long run at a short period grows its series as it goes.
	samples := min(int(n.End.Nanos()/period.Nanos())+1, maxTracePrealloc)
	tr := &Trace{
		Names: make([]string, len(probes)),
		T:     make([]sim.Time, 0, samples),
		V:     make([][]float64, len(probes)),

		net:    n,
		period: period,
		probes: probes,
	}
	for i, p := range probes {
		tr.Names[i] = p.Name
		tr.V[i] = make([]float64, 0, samples)
	}
	n.traces = append(n.traces, tr)
	return tr
}

// traceTick takes one sample of a Trace and re-arms while the next sample
// falls inside the run (sim.Handler).
type traceTick Trace

func (tk *traceTick) RunEvent(now sim.Time) {
	tk.T = append(tk.T, now)
	for i, p := range tk.probes {
		tk.V[i] = append(tk.V[i], p.Fn())
	}
	if now+tk.period <= tk.net.End {
		tk.net.Sim.ScheduleAfter(tk.period, tk)
	}
}

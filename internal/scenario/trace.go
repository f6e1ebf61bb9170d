package scenario

import (
	"fmt"
	"strconv"
	"strings"

	"mptcpsim/internal/core"
	"mptcpsim/internal/sim"
)

// maxTracePrealloc bounds the samples a trace reserves room for up front.
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

// tracer is the network's one sampler, compiled from Spec.Trace: at
// t = 0, period, 2·period, … up to Net.End it appends the time and the
// value of every probe to the report's series (sim.Handler). Like the
// invariant monitor it schedules its own events but draws no randomness
// and touches no packet, so a traced run reaches the untraced run's digest
// with one more processed event per sample.
type tracer struct {
	net    *Net
	period sim.Time
	probes []func() float64
	rep    *TraceReport
}

// newTracer compiles a validated spec's Spec.Trace against n's flows, in
// probe order, reserving room for up to maxTracePrealloc samples: a long
// run at a short period grows its series as it goes.
//
//simlint:cold
func newTracer(n *Net, sp *Spec) *tracer {
	period := sim.Millis(sp.Trace.PeriodMs)
	samples := min(int(n.End.Nanos()/period.Nanos())+1, maxTracePrealloc)
	tr := &tracer{
		net:    n,
		period: period,
		probes: make([]func() float64, len(sp.Trace.Probes)),
		rep:    &TraceReport{T: make([]sim.Time, 0, samples), V: make([][]float64, len(sp.Trace.Probes))},
	}
	for i, s := range sp.Trace.Probes {
		p, err := sp.probe(s)
		if err != nil {
			panic(err) // a compiled spec cannot get here: Validate vetted it
		}
		f := n.Groups[p.group][p.replica]
		switch src := f.Srcs[p.path]; p.kind {
		case "cwnd":
			tr.probes[i] = src.CwndPkts
		case "srtt":
			tr.probes[i] = src.SRTT
		case "alpha":
			o := f.Conn.Controller().(*core.OLIA)
			tr.probes[i] = func() float64 { return o.Alpha(p.path) }
		default: // ell
			o := f.Conn.Controller().(*core.OLIA)
			tr.probes[i] = func() float64 { return o.Ell(p.path) }
		}
		tr.rep.V[i] = make([]float64, 0, samples)
	}
	return tr
}

// RunEvent takes one sample and re-arms while the next sample falls inside
// the run.
func (tr *tracer) RunEvent(now sim.Time) {
	tr.rep.T = append(tr.rep.T, now)
	for i, probe := range tr.probes {
		tr.rep.V[i] = append(tr.rep.V[i], probe())
	}
	if now+tr.period <= tr.net.End {
		tr.net.Sim.ScheduleAfter(tr.period, tr)
	}
}

package scenario

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"mptcpsim/internal/core"
	"mptcpsim/internal/sim"
)

// lossyTwoPathSpec draws from the run's random stream on every packet
// crossing link 0, so a stray draw anywhere shifts every later loss.
func lossyTwoPathSpec() *Spec {
	sp := twoPathSpec()
	sp.Links[0].LossPct = 1
	return sp
}

// checkSamples fails unless tr holds one sample of each of probes every
// period from 0 to end: its times are 0, period, 2·period, … ≤ end, and
// every column has as many values as there are times.
func checkSamples(t *testing.T, tr *TraceReport, period, end sim.Time, probes int) {
	t.Helper()
	if want := int(end/period) + 1; len(tr.T) != want {
		t.Fatalf("period %v: %d samples, want %d", period, len(tr.T), want)
	}
	for i, at := range tr.T {
		if at != period.Scale(i) {
			t.Fatalf("period %v: sample %d at %v", period, i, at)
		}
	}
	if len(tr.V) != probes {
		t.Fatalf("period %v: %d columns, want %d", period, len(tr.V), probes)
	}
	for i, col := range tr.V {
		if len(col) != len(tr.T) {
			t.Fatalf("period %v: column %d has %d values for %d times", period, i, len(col), len(tr.T))
		}
	}
}

// TestTraceNeverPerturbsRun: observation is invisible to the simulated
// dynamics. At either period, a traced run ends with the untraced run's
// goodput and queue digests, processing exactly one extra event per
// sample, and samples at 0, p, 2p, … ≤ End.
func TestTraceNeverPerturbsRun(t *testing.T) {
	untraced := mustRun(t, lossyTwoPathSpec()).Digest()
	for _, periodMs := range []float64{100, 300} {
		sp := lossyTwoPathSpec()
		sp.Trace = &TraceSpec{PeriodMs: periodMs, Probes: []string{"cwnd mp 0 0", "cwnd mp 0 1"}}
		n := mustCompile(t, sp)
		rep := runClean(t, n)
		if d := rep.Digest(); d.Traffic != untraced.Traffic {
			t.Fatalf("period %g ms: tracing moved the run:\n untraced %+v\n   traced %+v", periodMs, untraced, d)
		} else if ticks := uint64(len(rep.Trace.T)); d.Processed != untraced.Processed+ticks {
			t.Fatalf("period %g ms: processed %d traced, %d untraced: want exactly %d trace ticks between them",
				periodMs, d.Processed, untraced.Processed, ticks)
		}
		checkSamples(t, rep.Trace, sim.Millis(periodMs), n.End, len(sp.Trace.Probes))
	}
}

// TestTraceSamplesAtPeriod: a one-second run sampled every 100 ms has
// eleven samples, the first at 0 and the last at the end of the run.
func TestTraceSamplesAtPeriod(t *testing.T) {
	sp := twoPathSpec()
	sp.WarmupSec, sp.DurationSec = 0, 1
	sp.Trace = &TraceSpec{PeriodMs: 100, Probes: []string{"cwnd mp 0 0"}}
	tr := mustRun(t, sp).Trace
	if len(tr.T) != 11 { // t = 0, 0.1, ..., 1.0
		t.Fatalf("samples %d, want 11", len(tr.T))
	}
	if tr.T[0] != 0 || tr.T[10] != sim.Second {
		t.Fatalf("sample times wrong: first %v last %v", tr.T[0], tr.T[10])
	}
}

// TestTraceProbeOrder: the report's columns follow Spec.Trace.Probes, so
// listing the probes the other way round swaps the columns and nothing
// else.
func TestTraceProbeOrder(t *testing.T) {
	run := func(probes []string) *TraceReport {
		sp := twoPathSpec()
		sp.Trace = &TraceSpec{PeriodMs: 50, Probes: probes}
		return mustRun(t, sp).Trace
	}
	fwd, rev := run([]string{"cwnd mp 0 0", "srtt mp 0 1"}), run([]string{"srtt mp 0 1", "cwnd mp 0 0"})
	if len(fwd.V) != 2 || reflect.DeepEqual(fwd.V[0], fwd.V[1]) {
		t.Fatalf("the two probes are not told apart: %v", fwd.V)
	}
	if !reflect.DeepEqual(fwd.T, rev.T) || !reflect.DeepEqual(fwd.V[0], rev.V[1]) || !reflect.DeepEqual(fwd.V[1], rev.V[0]) {
		t.Fatal("reversing the probes did not just swap the columns")
	}
}

// TestTraceRejectsBadPeriod: a trace needs a period of at least a
// nanosecond. Validate rejects any other, and so Compile and Run do,
// before a network is built.
func TestTraceRejectsBadPeriod(t *testing.T) {
	for _, periodMs := range []float64{0, -1, 1e-7} {
		sp := twoPathSpec()
		sp.Trace = &TraceSpec{PeriodMs: periodMs, Probes: []string{"cwnd mp 0 0"}}
		if err := sp.Validate(); err == nil || !strings.Contains(err.Error(), "trace period") {
			t.Errorf("period %g ms: Validate says %v", periodMs, err)
		}
		if n, err := Compile(sp); n != nil || err == nil {
			t.Errorf("period %g ms: Compile built a network", periodMs)
		}
		if rep, err := Run(context.Background(), sp); rep != nil || err == nil {
			t.Errorf("period %g ms: Run ran", periodMs)
		}
	}
}

// reference samples featureSpec's trace probes by hand, off the senders
// and the controller they name, every 100 ms to the end of the run
// (sim.Handler).
type reference struct {
	n    *Net
	read []func() float64
	T    []sim.Time
	V    [][]float64
}

func (r *reference) RunEvent(now sim.Time) {
	r.T = append(r.T, now)
	for i, read := range r.read {
		r.V[i] = append(r.V[i], read())
	}
	if now+100*sim.Millisecond <= r.n.End {
		r.n.Sim.ScheduleAfter(100*sim.Millisecond, r)
	}
}

// TestSpecTrace: a Spec.Trace samples exactly what reading the same
// senders and controller by hand at the same instants reads, its series
// travel in the report, and tracing moves no traffic.
func TestSpecTrace(t *testing.T) {
	sp := featureSpec()
	n := mustCompile(t, sp)
	mp, xfer, bg := n.Groups[0][0], n.Groups[2][2], n.Groups[1][1]
	o := mp.Conn.Controller().(*core.OLIA)
	ref := &reference{n: n, read: []func() float64{
		mp.Srcs[0].CwndPkts,
		mp.Srcs[1].SRTT,
		func() float64 { return o.Alpha(0) },
		func() float64 { return o.Ell(1) },
		xfer.Srcs[0].CwndPkts,
		bg.Srcs[0].SRTT,
	}}
	ref.V = make([][]float64, len(ref.read))
	n.Sim.Schedule(0, ref)
	rep := runClean(t, n)

	if rep.Trace == nil || !reflect.DeepEqual(rep.Trace.T, ref.T) || !reflect.DeepEqual(rep.Trace.V, ref.V) {
		t.Fatalf("the Spec.Trace series differ from the probes read by hand")
	}
	checkSamples(t, rep.Trace, 100*sim.Millisecond, n.End, len(sp.Trace.Probes))

	bare := featureSpec()
	bare.Trace = nil
	untraced := mustRun(t, bare)
	if untraced.Trace != nil {
		t.Fatal("an untraced run carries a trace")
	}
	if d, u := rep.Digest(), untraced.Digest(); d.Traffic != u.Traffic || d.Processed != u.Processed+2*uint64(len(ref.T)) {
		t.Fatalf("a run traced twice over digests %+v, the untraced one %+v", d, u)
	}
}

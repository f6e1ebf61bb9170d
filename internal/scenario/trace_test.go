package scenario

import (
	"reflect"
	"testing"

	"mptcpsim/internal/core"
	"mptcpsim/internal/sim"
)

// windowProbes samples the two subflow windows of the spec's first group.
func windowProbes(n *Net) []Probe {
	mp := n.Groups[0][0].Conn
	return []Probe{
		{Name: "w1", Fn: func() float64 { return mp.CwndPkts(0) }},
		{Name: "w2", Fn: func() float64 { return mp.CwndPkts(1) }},
	}
}

// lossyTwoPathSpec draws from the run's random stream on every packet
// crossing link 0, so a stray draw anywhere shifts every later loss.
func lossyTwoPathSpec() *Spec {
	sp := twoPathSpec()
	sp.Links[0].LossPct = 1
	return sp
}

// TestTraceNeverPerturbsRun: observation is invisible to the simulated
// dynamics. A traced run ends with the untraced run's goodput and queue
// digests, processing exactly one extra event per sample; every trace
// samples at 0, p, 2p, … ≤ End; and two traces of different periods on one
// run record what each records alone.
func TestTraceNeverPerturbsRun(t *testing.T) {
	untraced := runClean(t, mustCompile(t, lossyTwoPathSpec()))

	n := mustCompile(t, lossyTwoPathSpec())
	fast := n.Trace(100*sim.Millisecond, windowProbes(n)[:1]...)
	slow := n.Trace(300*sim.Millisecond, windowProbes(n)...)
	traced := runClean(t, n)

	ud, td := untraced.Digest(), traced.Digest()
	if ud.Traffic != td.Traffic {
		t.Fatalf("tracing moved the run:\n untraced %+v\n   traced %+v", ud, td)
	}
	if ticks := uint64(len(fast.T) + len(slow.T)); td.Processed != ud.Processed+ticks {
		t.Fatalf("processed %d traced, %d untraced: want exactly %d trace ticks between them", td.Processed, ud.Processed, ticks)
	}
	for _, tr := range []*Trace{fast, slow} {
		if want := int(n.End/tr.period) + 1; len(tr.T) != want {
			t.Fatalf("period %v: %d samples, want %d", tr.period, len(tr.T), want)
		}
		for i, at := range tr.T {
			if at != tr.period.Scale(i) {
				t.Fatalf("period %v: sample %d at %v", tr.period, i, at)
			}
		}
		for i, col := range tr.V {
			if len(col) != len(tr.T) {
				t.Fatalf("period %v: column %s has %d values for %d times", tr.period, tr.Names[i], len(col), len(tr.T))
			}
		}
	}

	for _, alone := range []*Trace{fast, slow} {
		m := mustCompile(t, lossyTwoPathSpec())
		solo := m.Trace(alone.period, windowProbes(m)[:len(alone.V)]...)
		runClean(t, m)
		if !reflect.DeepEqual(solo.T, alone.T) || !reflect.DeepEqual(solo.V, alone.V) {
			t.Fatalf("period %v: the series differ when another trace runs beside it", alone.period)
		}
	}
}

func TestTraceSamplesAtPeriod(t *testing.T) {
	n := newNet("t", 1, 0, sim.Second)
	v := 0.0
	tr := n.Trace(100*sim.Millisecond, Probe{Name: "v", Fn: func() float64 { v++; return v }})
	runClean(t, n)
	if len(tr.T) != 11 { // t = 0, 0.1, ..., 1.0
		t.Fatalf("samples %d, want 11", len(tr.T))
	}
	if tr.T[0] != 0 || tr.T[10] != sim.Second {
		t.Fatalf("sample times wrong: first %v last %v", tr.T[0], tr.T[10])
	}
	if tr.V[0][10] != 11 {
		t.Fatalf("probe called %v times", tr.V[0][10])
	}
}

func TestTraceMultipleProbesAndNames(t *testing.T) {
	n := newNet("t", 1, 0, 200*sim.Millisecond)
	tr := n.Trace(50*sim.Millisecond,
		Probe{Name: "a", Fn: func() float64 { return 1 }},
		Probe{Name: "b", Fn: func() float64 { return 2 }})
	runClean(t, n)
	if !reflect.DeepEqual(tr.Names, []string{"a", "b"}) {
		t.Fatalf("names %v", tr.Names)
	}
	if len(tr.V) != 2 || len(tr.V[1]) != 5 || tr.V[0][0] != 1 || tr.V[1][0] != 2 {
		t.Fatalf("series %v", tr.V)
	}
}

// TestTracePanics: a trace needs a positive period and must be registered
// before the run it observes starts.
func TestTracePanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	n := newNet("t", 1, 0, sim.Second)
	mustPanic("zero period", func() { n.Trace(0) })
	mustPanic("negative period", func() { n.Trace(-sim.Millisecond) })
	runClean(t, n)
	mustPanic("after Run", func() { n.Trace(sim.Millisecond) })
}

// TestSpecTrace: a Spec.Trace samples exactly what the same probes
// registered by hand on the untraced spec's network sample, its series
// travel in the report, and tracing moves no traffic.
func TestSpecTrace(t *testing.T) {
	sp := featureSpec()
	rep := mustRun(t, sp)

	bare := featureSpec()
	bare.Trace = nil
	n := mustCompile(t, bare)
	mp, xfer, bg := n.Groups[0][0], n.Groups[2][2], n.Groups[1][1]
	o := mp.Conn.Controller().(*core.OLIA)
	hand := n.Trace(100*sim.Millisecond,
		Probe{Name: "w1", Fn: mp.Srcs[0].CwndPkts},
		Probe{Name: "rtt2", Fn: mp.Srcs[1].SRTT},
		Probe{Name: "a1", Fn: func() float64 { return o.Alpha(0) }},
		Probe{Name: "l2", Fn: func() float64 { return o.Ell(1) }},
		Probe{Name: "x", Fn: xfer.Srcs[0].CwndPkts},
		Probe{Name: "b", Fn: bg.Srcs[0].SRTT})
	byHand := runClean(t, n)

	if rep.Trace == nil || !reflect.DeepEqual(rep.Trace.T, hand.T) || !reflect.DeepEqual(rep.Trace.V, hand.V) {
		t.Fatalf("the Spec.Trace series differ from the hand-registered probes'")
	}
	if want := int(n.End/(100*sim.Millisecond)) + 1; len(rep.Trace.T) != want || len(rep.Trace.V) != len(sp.Trace.Probes) {
		t.Fatalf("%d samples of %d probes, want %d of %d", len(rep.Trace.T), len(rep.Trace.V), want, len(sp.Trace.Probes))
	}
	if rep.Digest() != byHand.Digest() {
		t.Fatalf("a Spec.Trace run digests %+v, the hand-traced one %+v", rep.Digest(), byHand.Digest())
	}
	if untraced := mustRun(t, bare); untraced.Trace != nil || untraced.Digest().Traffic != rep.Digest().Traffic {
		t.Fatal("an untraced run carries a trace, or tracing moved the traffic")
	}
}

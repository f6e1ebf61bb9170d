package mptcp

import (
	"testing"

	"mptcpsim/internal/core"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/tcp"
)

func TestProbeControlSuspendsBadPath(t *testing.T) {
	// Asymmetric rig: path 2 heavily congested. With probe control, the
	// congested subflow must get suspended and its traffic drop to ~zero
	// during suspension windows.
	rig := newTwoLinkRig(11, rate10M, 2, 12, core.NewOLIA())
	rig.conn.Start(300 * sim.Millisecond)
	rig.conn.EnableProbeControl()
	rig.run(60 * sim.Second)
	if rig.conn.SuspendCount(1) == 0 {
		t.Fatal("congested path never suspended")
	}
	if rig.conn.SuspendCount(0) > rig.conn.SuspendCount(1) {
		t.Fatalf("good path suspended more than bad (%d vs %d)",
			rig.conn.SuspendCount(0), rig.conn.SuspendCount(1))
	}
	// The good path must keep flowing throughout.
	if rig.subGoodput(0) < 1e6 {
		t.Fatalf("good path goodput %d too low", int64(rig.subGoodput(0)))
	}
}

func TestProbeControlNeverSuspendsAllPaths(t *testing.T) {
	// Both paths terrible (tiny capacity, heavy competition): at least one
	// subflow must remain active at all times.
	rig := newTwoLinkRig(12, 500_000, 10, 10, core.NewOLIA())
	rig.conn.Start(300 * sim.Millisecond)
	rig.conn.EnableProbeControl()
	for i := 1; i <= 60; i++ {
		rig.run(sim.Time(i) * sim.Second)
		if rig.conn.probeStates[0].suspended && rig.conn.probeStates[1].suspended {
			t.Fatalf("both paths suspended at %v", rig.s.Now())
		}
	}
	// Each path sat at the floor long enough to be suspended at some point,
	// so the guard, not luck, kept one of them active.
	if rig.conn.SuspendCount(0) == 0 || rig.conn.SuspendCount(1) == 0 {
		t.Fatalf("suspensions %d and %d: both paths must have qualified", rig.conn.SuspendCount(0), rig.conn.SuspendCount(1))
	}
}

func TestProbeControlResumesRecoveredPath(t *testing.T) {
	// The congested path is suspended; when its background competition is
	// finite and drains, a re-probe should revive the path.
	rig := newTwoLinkRig(13, rate10M, 2, 10, core.NewOLIA())
	rig.conn.Start(300 * sim.Millisecond)
	rig.conn.EnableProbeControl()
	rig.run(120 * sim.Second)
	// With periodic re-probing the subflow alternates; it must have been
	// suspended at least twice (suspend → reprobe → still bad → suspend).
	if rig.conn.SuspendCount(1) < 2 {
		t.Fatalf("expected repeated re-probe cycles, got %d", rig.conn.SuspendCount(1))
	}
}

func TestProbeControlDisabledAccessors(t *testing.T) {
	rig := newTwoLinkRig(14, rate10M, 1, 1, core.NewOLIA())
	if rig.conn.SuspendCount(0) != 0 || rig.conn.probeStates != nil && rig.conn.probeStates[0].suspended {
		t.Fatal("accessors must be inert without probe control")
	}
}

func TestProbeControlBeforeSubflowsPanics(t *testing.T) {
	s := sim.New(1)
	conn := New(s, "x", core.NewOLIA(), tcp.Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	conn.EnableProbeControl()
}

func TestPauseResumeSemantics(t *testing.T) {
	rig := newTwoLinkRig(15, rate10M, 1, 1, core.NewOLIA())
	rig.conn.Start(0)
	rig.run(5 * sim.Second)
	src := rig.conn.Subflows()[0].Src
	before := rig.conn.Subflows()[0].Sink.GoodputBytes()
	src.Pause()
	rig.run(10 * sim.Second)
	during := rig.conn.Subflows()[0].Sink.GoodputBytes()
	// Only in-flight data may drain: less than a window's worth.
	if during-before > 256*1500 {
		t.Fatalf("paused subflow delivered %d bytes", during-before)
	}
	src.Resume()
	// Resume on a non-paused source is a no-op.
	src.Resume()
	rig.run(20 * sim.Second)
	after := rig.conn.Subflows()[0].Sink.GoodputBytes()
	if after-during < 1e6 {
		t.Fatalf("subflow did not recover after resume: %d bytes", after-during)
	}
}

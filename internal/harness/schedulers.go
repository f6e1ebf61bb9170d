package harness

import (
	"fmt"
	"io"

	"mptcpsim/internal/mptcp"
	"mptcpsim/internal/scenario"
	"mptcpsim/internal/stats"
)

// This file is the scheduler×controller experiment family — an extension
// beyond the paper's figures. The paper studies how coupled congestion
// control splits *rates* across paths; these experiments study the
// orthogonal axis the kernel calls the packet scheduler: which subflow
// each chunk of a finite transfer is assigned to. Both experiments run
// finite scheduled streams (scenario.FlowSpec.Scheduler) over the same
// asymmetric two-path rig as the conformance capacity checks: an 8 Mb/s
// short path and a 2 Mb/s long path with one background TCP on the slow
// one.

// schedMetrics are the observables of one finite scheduled transfer.
type schedMetrics struct {
	done          bool
	completionSec float64
	rateMbps      float64 // data-level rate: bytes·8 / completion
}

// schedScenario builds the family's rig: a finite scheduled stream of
// total bytes over 8+2 Mb/s paths (10/40 ms) plus one jittered background
// TCP on the slow path. With flap set, the timeline takes the fast path
// down at 1 s and restores it at 3 s — mid-transfer for every policy —
// exercising the reinjection machinery.
func schedScenario(sched, algo string, total int64, seed int64, flap bool, durationSec float64) *scenario.Spec {
	sp := &scenario.Spec{
		Name: "sched-" + sched + "-" + algo, Seed: seed,
		WarmupSec: 0, DurationSec: durationSec,
		Links: []scenario.LinkSpec{
			{RateMbps: 8},
			{RateMbps: 2, Queue: scenario.QueueDropTail, BufferPkts: 100},
		},
		Paths: []scenario.PathSpec{
			{Links: []int{0}, DelayMs: 10},
			{Links: []int{1}, DelayMs: 40},
		},
		Flows: []scenario.FlowSpec{
			{Name: "stream", Algorithm: algo, Paths: []int{0, 1},
				FlowBytes: total, Scheduler: sched, KeepSlowStart: true},
			{Name: "bg", Algorithm: scenario.AlgoTCP, Paths: []int{1},
				StartSec: 0.1, StartJitter: true},
		},
	}
	if flap {
		sp.Timeline = []scenario.TimelineEvent{
			{AtSec: 1.0, Path: &scenario.PathFlap{Path: 0}},
			{AtSec: 3.0, Path: &scenario.PathFlap{Path: 0, Up: true}},
		}
	}
	return sp
}

// runSchedTransfer is one scheduled transfer, read as its completion
// observables; a missing stream report is a harness bug and panics.
func runSchedTransfer(sched, algo string, total int64, seed int64, flap bool, durationSec float64, m *schedMetrics) Job {
	sp := schedScenario(sched, algo, total, seed, flap, durationSec)
	return Job{Spec: sp, Read: func(_ *scenario.Net, rep *scenario.RunReport) {
		sr := rep.Flows[0].Stream
		if sr == nil {
			panic(fmt.Sprintf("harness: %s: scheduled flow has no stream report", sp.Name))
		}
		*m = schedMetrics{done: sr.Done, completionSec: sr.CompletionSec}
		if sr.Done && sr.CompletionSec > 0 {
			m.rateMbps = stats.Mbps(total, sr.CompletionSec)
		}
	}}
}

// schedControllers are the coupling algorithms the matrix crosses the
// schedulers with: the paper's OLIA, RFC 6356 LIA, and uncoupled TCP.
var schedControllers = []string{"olia", "lia", "uncoupled"}

// schedPoint is one cell of the scheduler×controller matrix.
type schedPoint struct {
	sched, algo string
}

const (
	schedMatrixBytes = int64(2 << 20) // 2 MiB transfer for the matrix
	schedFlapBytes   = int64(4 << 20) // 4 MiB so the flap lands mid-transfer
	schedMatrixDur   = 12.0           // seconds; ample for 2 MiB over ≥2 Mb/s
	schedFlapDur     = 30.0           // covers the 2 s outage plus slow-path drain
)

// planSchedMatrix sweeps scheduler × controller at fixed transfer size
// and summarizes completion time and data rate across seeds.
func planSchedMatrix(cfg Config) Plan {
	var pts []schedPoint
	for _, sched := range mptcp.Schedulers() {
		for _, algo := range schedControllers {
			pts = append(pts, schedPoint{sched, algo})
		}
	}
	return sweep(cfg, pts, func(p schedPoint, seed int64, m *schedMetrics) Job {
		return runSchedTransfer(p.sched, p.algo, schedMatrixBytes, seed, false, schedMatrixDur, m)
	}, func(runs [][]schedMetrics) (*Result, error) {
		r := &Result{
			Preamble: []string{
				fmt.Sprintf("finite %d KiB transfer over 8+2 Mb/s paths (10/40 ms), background TCP on the slow path", schedMatrixBytes>>10),
				"completion time and data-level rate per (scheduler, controller), mean over seeds",
			},
			Columns: []Column{
				{Name: "scheduler"}, {Name: "controller"},
				{Name: "completion", Unit: "s"}, {Name: "rate", Unit: "Mb/s"},
				{Name: "done"},
			},
			Footer: []string{
				"pull is the demand-driven default; redundant duplicates every chunk so its rate is bounded",
				"by the best single path (8 Mb/s) while the others may use the 10 Mb/s aggregate",
			},
		}
		for i, p := range pts {
			var comp, rate stats.Summary
			done := 0
			for _, m := range runs[i] {
				if !m.done {
					continue
				}
				done++
				comp.Add(m.completionSec)
				rate.Add(m.rateMbps)
			}
			r.Rows = append(r.Rows, []Cell{
				TextCell(p.sched), TextCell(p.algo),
				SummaryCell(comp), SummaryCell(rate), NumCell(float64(done)),
			})
		}
		return r, nil
	})
}

func textSchedMatrix(r *Result, w io.Writer) error {
	fmt.Fprintf(w, "%-10s %-10s | %-16s | %-14s | %s\n",
		"scheduler", "controller", "completion (s)", "rate (Mb/s)", "done")
	prev := ""
	for _, c := range r.Rows {
		if prev != "" && c[0].Text != prev {
			fmt.Fprintln(w)
		}
		prev = c[0].Text
		fmt.Fprintf(w, "%-10s %-10s | %7.3f ± %5.3f  | %6.3f ± %5.3f | %d\n",
			c[0].Text, c[1].Text,
			c[2].Value, c[2].CI95, c[3].Value, c[3].CI95, c[4].Int())
	}
	return nil
}

// planSchedFlap runs every scheduler under OLIA twice — once clean,
// once with the fast path flapped down for [1 s, 3 s] — and reports the
// completion-time stretch the outage costs each policy. Before the
// reinjection fix, any non-redundant policy stalled forever here.
func planSchedFlap(cfg Config) Plan {
	type flapPoint struct {
		sched string
		flap  bool
	}
	var pts []flapPoint
	for _, sched := range mptcp.Schedulers() {
		pts = append(pts, flapPoint{sched, false}, flapPoint{sched, true})
	}
	return sweep(cfg, pts, func(p flapPoint, seed int64, m *schedMetrics) Job {
		return runSchedTransfer(p.sched, "olia", schedFlapBytes, seed, p.flap, schedFlapDur, m)
	}, func(runs [][]schedMetrics) (*Result, error) {
		r := &Result{
			Preamble: []string{
				fmt.Sprintf("finite %d KiB transfer under olia; fast path down at 1 s, restored at 3 s", schedFlapBytes>>10),
				"every policy must finish over the survivor: frozen spans are reinjected, never stranded",
			},
			Columns: []Column{
				{Name: "scheduler"},
				{Name: "clean", Unit: "s"}, {Name: "flapped", Unit: "s"},
				{Name: "stretch", Unit: "x"}, {Name: "done"},
			},
			Footer: []string{
				"stretch = flapped/clean mean completion; done counts flapped-run completions",
			},
		}
		for i := 0; i < len(pts); i += 2 {
			var clean, flapped stats.Summary
			done := 0
			for _, m := range runs[i] {
				if m.done {
					clean.Add(m.completionSec)
				}
			}
			for _, m := range runs[i+1] {
				if m.done {
					done++
					flapped.Add(m.completionSec)
				}
			}
			stretch := 0.0
			if clean.Mean() > 0 {
				stretch = flapped.Mean() / clean.Mean()
			}
			r.Rows = append(r.Rows, []Cell{
				TextCell(pts[i].sched),
				SummaryCell(clean), SummaryCell(flapped),
				NumCell(stretch), NumCell(float64(done)),
			})
		}
		return r, nil
	})
}

func textSchedFlap(r *Result, w io.Writer) error {
	fmt.Fprintf(w, "%-10s | %-16s | %-16s | %-8s | %s\n",
		"scheduler", "clean (s)", "flapped (s)", "stretch", "done")
	for _, c := range r.Rows {
		fmt.Fprintf(w, "%-10s | %7.3f ± %5.3f  | %7.3f ± %5.3f  | %6.2fx  | %d\n",
			c[0].Text, c[1].Value, c[1].CI95, c[2].Value, c[2].CI95,
			c[3].Value, c[4].Int())
	}
	return nil
}

func init() {
	register(&Experiment{
		ID:       "sched-matrix",
		PaperRef: "§VII (future work)",
		Title:    "Scheduler×controller matrix: completion time of a finite transfer per subflow scheduler and coupling algorithm",
		Plan:     planSchedMatrix,
		Text:     textSchedMatrix,
	})
	register(&Experiment{
		ID:       "sched-flap",
		PaperRef: "§VII (future work)",
		Title:    "Scheduler resilience: completion-time stretch under a mid-transfer fast-path outage (reinjection at work)",
		Plan:     planSchedFlap,
		Text:     textSchedFlap,
	})
}

package harness

import (
	"fmt"
	"io"
	"math"

	"mptcpsim/internal/mptcp"
	"mptcpsim/internal/scenario"
	"mptcpsim/internal/stats"
)

// This file is the scheduler×controller experiment family — an extension
// beyond the paper's figures. The paper studies how coupled congestion
// control splits *rates* across paths; these experiments study the
// orthogonal axis the kernel calls the packet scheduler: which subflow
// each chunk of a finite transfer is assigned to. Both experiments run
// finite scheduled streams (scenario.FlowSpec.Scheduler) over one
// asymmetric two-path rig: an 8 Mb/s short path and a 2 Mb/s long path
// with one background TCP on the slow one.

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

// runSchedTransfer is one scheduled transfer, read as whether it
// finished (reading 0: 1 or 0), its completion time in seconds (1) and its
// data-level rate, bytes·8 / completion, in Mb/s (2); an unfinished
// transfer reads NaN for both. A missing stream report is a harness bug
// and panics.
func runSchedTransfer(sched, algo string, total int64, flap bool, durationSec float64) network {
	return func(_ Config, seed int64, out *[]float64) Job {
		sp := schedScenario(sched, algo, total, seed, flap, durationSec)
		return Job{Spec: sp, Read: func(rep *scenario.RunReport) {
			sr := rep.Flows[0].Stream
			if sr == nil {
				panic(fmt.Sprintf("harness: %s: scheduled flow has no stream report", sp.Name))
			}
			done, completion, rate := 0.0, math.NaN(), math.NaN()
			if sr.Done {
				done, completion, rate = 1, sr.CompletionSec, 0
				if sr.CompletionSec > 0 {
					rate = stats.Mbps(total, sr.CompletionSec)
				}
			}
			*out = []float64{done, completion, rate}
		}}
	}
}

// schedControllers are the coupling algorithms the matrix crosses the
// schedulers with: the paper's OLIA, RFC 6356 LIA, and uncoupled TCP.
var schedControllers = []string{"olia", "lia", "uncoupled"}

const (
	schedMatrixBytes = int64(2 << 20) // 2 MiB transfer for the matrix
	schedFlapBytes   = int64(4 << 20) // 4 MiB so the flap lands mid-transfer
	schedMatrixDur   = 12.0           // seconds; ample for 2 MiB over ≥2 Mb/s
	schedFlapDur     = 30.0           // covers the 2 s outage plus slow-path drain
)

// schedMatrix sweeps scheduler × controller at fixed transfer size and
// summarizes completion time and data rate across the seeds whose
// transfer finished.
var schedMatrix = &table{
	preamble: []string{
		fmt.Sprintf("finite %d KiB transfer over 8+2 Mb/s paths (10/40 ms), background TCP on the slow path", schedMatrixBytes>>10),
		"completion time and data-level rate per (scheduler, controller), mean over seeds",
	},
	cols: []col{
		{name: "scheduler"}, {name: "controller"},
		{name: "completion", unit: "s", read: at(1)}, {name: "rate", unit: "Mb/s", read: at(2)},
		{name: "done", read: at(0), count: true},
	},
	seeded: true,
	footer: []string{
		"pull is the demand-driven default; redundant duplicates every chunk so its rate is bounded",
		"by the best single path (8 Mb/s) while the others may use the 10 Mb/s aggregate",
	},
	rows: schedMatrixRows(),
}

// schedMatrixRows are the matrix's cells, controllers inner.
func schedMatrixRows() []row {
	var rows []row
	for _, sched := range mptcp.Schedulers() {
		for _, algo := range schedControllers {
			rows = append(rows, row{labels: []Cell{TextCell(sched), TextCell(algo)},
				run: runSchedTransfer(sched, algo, schedMatrixBytes, false, schedMatrixDur)})
		}
	}
	return rows
}

// textSchedMatrix prints the matrix without its preamble and footer, a
// blank line between schedulers.
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

// schedFlap runs every scheduler under OLIA twice — once clean, once
// with the fast path flapped down for [1 s, 3 s] — and reports the
// completion-time stretch the outage costs each policy. Before the
// reinjection fix, any non-redundant policy stalled forever here. Each
// scheduler's clean and flapped runs are two rows, so that its jobs keep
// their order, which its fold merges into one.
var schedFlap = &table{
	preamble: []string{
		fmt.Sprintf("finite %d KiB transfer under olia; fast path down at 1 s, restored at 3 s", schedFlapBytes>>10),
		"every policy must finish over the survivor: frozen spans are reinjected, never stranded",
	},
	cols:   []col{{name: "scheduler"}, {name: "completion", unit: "s", read: at(1)}, {name: "done", read: at(0), count: true}},
	seeded: true,
	footer: []string{
		"stretch = flapped/clean mean completion; done counts flapped-run completions",
	},
	finish: func(_ Config, r *Result, _ [][][]float64) error {
		r.Columns = []Column{
			{Name: "scheduler"},
			{Name: "clean", Unit: "s"}, {Name: "flapped", Unit: "s"},
			{Name: "stretch", Unit: "x"}, {Name: "done"},
		}
		pairs := r.Rows
		r.Rows = make([][]Cell, len(pairs)/2)
		for i := range r.Rows {
			clean, flapped := pairs[2*i], pairs[2*i+1]
			stretch := 0.0
			if clean[1].Value > 0 {
				stretch = flapped[1].Value / clean[1].Value
			}
			r.Rows[i] = []Cell{clean[0], clean[1], flapped[1], NumCell(stretch), flapped[2]}
		}
		return nil
	},
	rows: schedFlapRows(),
}

// schedFlapRows are each scheduler's clean and flapped runs under OLIA.
func schedFlapRows() []row {
	var rows []row
	for _, sched := range mptcp.Schedulers() {
		for _, flap := range []bool{false, true} {
			rows = append(rows, row{labels: []Cell{TextCell(sched)},
				run: runSchedTransfer(sched, "olia", schedFlapBytes, flap, schedFlapDur)})
		}
	}
	return rows
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
		Plan:     schedMatrix.plan,
		Text:     textSchedMatrix,
	})
	register(&Experiment{
		ID:       "sched-flap",
		PaperRef: "§VII (future work)",
		Title:    "Scheduler resilience: completion-time stretch under a mid-transfer fast-path outage (reinjection at work)",
		Plan:     schedFlap.plan,
		Text:     textSchedFlap,
	})
}

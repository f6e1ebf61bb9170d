package harness

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"

	"mptcpsim/internal/scenario"
	"mptcpsim/internal/sim"
)

// errDiskFull is what fullAfter's writes fail with.
var errDiskFull = errors.New("no space left on device")

// fullAfter accepts room bytes and fails every write past them.
type fullAfter struct{ room int }

func (f *fullAfter) Write(p []byte) (int, error) {
	if len(p) > f.room {
		n := f.room
		f.room = 0
		return n, errDiskFull
	}
	f.room -= len(p)
	return len(p), nil
}

// TestRunAllReturnsWriteError: RunAll renders straight to its writer, so
// wherever the writer starts failing — inside a table, between two
// experiments, on the JSON array's closing bracket, or on the banner of an
// experiment that itself failed — the writer's error is what comes back.
func TestRunAllReturnsWriteError(t *testing.T) {
	registerFailProbe()
	ctx, cfg := context.Background(), DefaultConfig()
	for _, format := range []Format{FormatText, FormatJSON, FormatCSV} {
		var whole bytes.Buffer
		if err := RunAll(ctx, cfg, []string{"fig4a", "fig5b"}, format, &whole, nil); err != nil {
			t.Fatal(err)
		}
		for _, room := range []int{0, 3, whole.Len() / 2, whole.Len() - 1} {
			err := RunAll(ctx, cfg, []string{"fig4a", "fig5b"}, format, &fullAfter{room: room}, nil)
			if !errors.Is(err, errDiskFull) {
				t.Errorf("%s, writer full after %d of %d bytes: err = %v, want the writer's error", format, room, whole.Len(), err)
			}
		}
	}
	// The failing experiment's text banner is a write like any other.
	var first bytes.Buffer
	if err := RunAll(ctx, cfg, []string{"fig4a"}, FormatText, &first, nil); err != nil {
		t.Fatal(err)
	}
	err := RunAll(ctx, cfg, []string{"fig4a", "zz-fail"}, FormatText, &fullAfter{room: first.Len()}, nil)
	if !errors.Is(err, errDiskFull) {
		t.Errorf("writer full at the failing experiment's banner: err = %v, want the writer's error", err)
	}
}

// TestRunAllGoroutineBound: however many experiments a RunAll spans, the
// goroutines it adds are the stream's workers — none per experiment and
// none per job — and all of them are gone when it returns.
func TestRunAllGoroutineBound(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments skipped in -short")
	}
	const workers = 2
	ids := []string{"fig1b", "fig4a", "table1", "fig7", "fig8", "ablation-epsilon",
		"ablation-cap", "ablation-ssthresh", "ablation-delack", "ext-rwnd"}
	baseline := runtime.NumGoroutine()
	peak := 0
	err := RunAll(context.Background(), parallelConfig(workers), ids, FormatText, io.Discard, func(Event) {
		peak = max(peak, runtime.NumGoroutine())
	})
	if err != nil {
		t.Fatal(err)
	}
	if limit := baseline + workers + 1; peak > limit {
		t.Errorf("%d goroutines alive during a RunAll over %d experiments at Workers=%d, want at most %d (baseline %d)",
			peak, len(ids), workers, limit, baseline)
	}
	waitForGoroutines(t, baseline)
}

// TestRegistryJobCounts: a job is a network, and a Spec that several
// experiments list runs once, so the whole registry announces 104 jobs at
// the quick scale (185 when every experiment ran its own) and 183 at the
// golden one (336); the conformance table's 9 and 18 share with nothing. Every two-link variant carries the same window trace,
// so fig7's OLIA run is also ablation-epsilon's, ablation-cap's,
// ext-rwnd's and ablation-delack's, its LIA run ablation-epsilon's, and
// fig8's OLIA run ablation-ssthresh's. The fat trees are Specs too:
// fig13b's three runs are fig13a's at the base seed and the largest
// subflow count, and fig14's are table3's, three rows at every seed (one
// at the quick scale, two at the golden one). The context is cancelled on
// the announcement, before any network runs.
func TestRegistryJobCounts(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want int
	}{
		{"DefaultConfig", DefaultConfig(), 104},
		{"goldenConfig", goldenConfig(), 183},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		total, done := -1, 0
		err := RunAll(ctx, tc.cfg, registryIDs(), FormatText, io.Discard, func(ev Event) {
			if ev.Kind != EventJobs {
				return
			}
			if total < 0 {
				total = ev.JobsTotal
				cancel()
			}
			done = ev.JobsDone
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want the cancellation", tc.name, err)
		}
		if total != tc.want || done != 0 {
			t.Errorf("%s: announced %d jobs and finished %d, want %d announced and none run", tc.name, total, done, tc.want)
		}
	}
}

// TestCollectSharesSpecRuns: within one call, two experiments that list
// the same Spec read one run of it, and both folds see that report, while
// a job whose Spec differs, by its seed alone, gets a run of its own.
func TestCollectSharesSpecRuns(t *testing.T) {
	var reps, folded [3]*scenario.RunReport
	probe := func(i int, sp *scenario.Spec) *Experiment {
		job := Job{Spec: sp, Read: func(rep *scenario.RunReport) { reps[i] = rep }}
		return &Experiment{ID: fmt.Sprintf("zz-share-%d", i), Plan: func(Config) Plan {
			return Plan{Jobs: []Job{job}, Fold: func() (*Result, error) {
				folded[i] = reps[i]
				return &Result{}, nil
			}}
		}}
	}
	exps := []*Experiment{probe(0, shortSpec(1)), probe(1, shortSpec(1)), probe(2, shortSpec(2))}
	total := 0
	_, err := collect(context.Background(), parallelConfig(2), exps, func(ev Event) {
		if ev.Kind == EventJobs {
			total = ev.JobsTotal
		}
	}, func(*Result) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if total != 2 {
		t.Fatalf("%d networks announced, want 2", total)
	}
	if folded[0] == nil || folded[0] != folded[1] {
		t.Errorf("the two jobs of one Spec folded reports %p and %p, want one shared run", folded[0], folded[1])
	}
	if folded[2] == nil || folded[2] == folded[0] || folded[2].Seed != 2 {
		t.Errorf("the job of another seed did not get its own run")
	}
}

// TestJobsTotalAnnouncedOnce: the job total of a whole RunAll is known
// before its first job runs. The experiments and configuration are the
// paper_tables benchmark workload's, whose harness.jobs_per_op is 37.
func TestJobsTotalAnnouncedOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments skipped in -short")
	}
	cfg := Config{
		Duration:   3 * sim.Second,
		Warmup:     sim.Second,
		DCDuration: 500 * sim.Millisecond,
		DCWarmup:   125 * sim.Millisecond,
		Seeds:      1,
		BaseSeed:   42,
		FatTreeK:   4,
		Subflows:   []int{2},
		Workers:    2,
	}
	const want = 37
	var jobs []Event
	err := RunAll(context.Background(), cfg, []string{"fig1b", "table1", "fig5c", "table3", "sched-matrix"},
		FormatText, io.Discard, func(ev Event) {
			if ev.Kind == EventJobs {
				jobs = append(jobs, ev)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) == 0 || jobs[0].JobsDone != 0 || jobs[0].JobsTotal != want {
		t.Fatalf("first job events %+v, want the first to announce 0/%d", jobs[:min(len(jobs), 3)], want)
	}
	for i, ev := range jobs[1:] {
		if ev.JobsTotal != want {
			t.Fatalf("event %d changed the total to %d", i+1, ev.JobsTotal)
		}
		if ev.JobsDone < jobs[i].JobsDone {
			t.Fatalf("event %d: done went back from %d to %d", i+1, jobs[i].JobsDone, ev.JobsDone)
		}
	}
	if last := jobs[len(jobs)-1]; last.JobsDone != want {
		t.Fatalf("jobs ended at %d/%d, want %d/%d", last.JobsDone, last.JobsTotal, want, want)
	}
}

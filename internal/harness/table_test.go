package harness

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"mptcpsim/internal/scenario"
)

// rateSweep is a zz- table that sweeps one Spec field, the first link's
// rate, of shortSpec: a label, a reading of that field, the seed, the
// seed only when it is even (NaN otherwise), a count of runs, and a cell
// computed from the earlier ones.
func rateSweep(seeded bool) *table {
	t := &table{
		cols: []col{
			{name: "rate"},
			{name: "link_rate", read: at(0)},
			{name: "seed", read: at(1)},
			{name: "even_seed", read: func(o []float64) float64 {
				if int(o[1])%2 != 0 {
					return math.NaN()
				}
				return o[1]
			}},
			{name: "runs", read: func([]float64) float64 { return 1 }, count: true},
			{name: "seed_plus_rate", calc: func(c []Cell) (float64, error) { return c[2].Value + c[1].Value, nil }},
		},
		seeded: seeded,
	}
	for _, rate := range []float64{5, 10} {
		t.rows = append(t.rows, row{labels: []Cell{NumCell(rate)}, run: func(_ Config, seed int64, out *[]float64) Job {
			sp := shortSpec(seed)
			sp.Links[0].RateMbps = rate
			return Job{Spec: sp, Read: func(n *scenario.Net, _ *scenario.RunReport) {
				*out = []float64{n.Spec.Links[0].RateMbps, float64(n.Seed)}
			}}
		}})
	}
	return t
}

// TestTableCellRules pins the one fold's rules on a swept Spec field: a
// seeded table summarizes each reading over Seeds runs, an unseeded one
// holds the plain reading at BaseSeed, a NaN reading leaves its run out, a
// count column sums, and a computed cell sees the row's earlier cells.
func TestTableCellRules(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments skipped in -short")
	}
	cfg := parallelConfig(2)
	cfg.Seeds, cfg.BaseSeed = 3, 100
	for _, seeded := range []bool{true, false} {
		tab := rateSweep(seeded)
		runs := 1
		if seeded {
			runs = cfg.Seeds
		}
		if got := len(tab.plan(cfg).Jobs); got != 2*runs {
			t.Fatalf("seeded=%v: %d jobs, want %d", seeded, got, 2*runs)
		}
		r, err := (&Experiment{ID: "zz-rate-sweep", Plan: tab.plan}).CollectResult(context.Background(), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, rate := range []float64{5, 10} {
			c := r.Rows[i]
			if c[0] != NumCell(rate) || c[1].Value != rate {
				t.Errorf("seeded=%v row %d: label %+v, reading %+v, want the rate %v", seeded, i, c[0], c[1], rate)
			}
			if !seeded {
				for j, want := range []Cell{NumCell(100), NumCell(100), IntCell(1), NumCell(100 + rate)} {
					if c[2+j] != want {
						t.Errorf("unseeded row %d column %s = %+v, want %+v", i, r.Columns[2+j].Name, c[2+j], want)
					}
				}
				continue
			}
			if c[2].N != 3 || c[2].Value != 101 || c[2].CI95 == 0 {
				t.Errorf("row %d seed cell %+v, want a summary of seeds 100..102", i, c[2])
			}
			if c[3].N != 2 || c[3].Value != 101 {
				t.Errorf("row %d even-seed cell %+v, want seeds 100 and 102 and the NaN left out", i, c[3])
			}
			if c[4] != IntCell(3) {
				t.Errorf("row %d count cell %+v, want 3 runs summed", i, c[4])
			}
			if c[5] != NumCell(101+rate) {
				t.Errorf("row %d computed cell %+v, want %v", i, c[5], 101+rate)
			}
		}
	}
}

// TestTableCalcErrorFailsExperiment: a computed cell's error fails the
// experiment with that error.
func TestTableCalcErrorFailsExperiment(t *testing.T) {
	errBadCell := errors.New("bad cell")
	tab := &table{
		cols: []col{{name: "x"}, {name: "y", calc: func(c []Cell) (float64, error) {
			if c[0].Value > 1 {
				return 0, errBadCell
			}
			return c[0].Value, nil
		}}},
		rows: []row{{labels: []Cell{NumCell(1)}}, {labels: []Cell{NumCell(2)}}},
	}
	_, err := (&Experiment{ID: "zz-bad-cell", Plan: tab.plan}).CollectResult(context.Background(), DefaultConfig(), nil)
	if !errors.Is(err, errBadCell) || !strings.Contains(err.Error(), "zz-bad-cell") {
		t.Fatalf("err = %v, want the computed cell's error attributed to zz-bad-cell", err)
	}
}

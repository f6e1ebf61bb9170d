package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"mptcpsim"
	"mptcpsim/internal/campaign"
	"mptcpsim/internal/scenario"
	"mptcpsim/internal/serve"
	"mptcpsim/internal/sim"
)

// workers is the worker count handed to every layer that takes one. It is
// fixed, not derived from the machine, so two boxes run the same schedule.
const workers = 2

// env is what one benchmark process shares between workloads and rigs.
type env struct {
	ctx context.Context
	// decl is BENCHMARK.json: the metrics to report, with their units.
	decl *benchmarkFile
	seed int64
	// out holds the cache directories, results.json and trace.json.
	out string
	// scale shrinks every workload's size; 1 except in the smoke test.
	scale float64
	// series collects the traced pass's per-layer observations by name.
	series map[string][]float64
}

func (e *env) observe(name string, v float64) {
	e.series[name] = append(e.series[name], v)
}

// scaled shrinks a size by the smoke-test factor, never below 1.
func (e *env) scaled(n int) int {
	return max(1, int(math.Round(float64(n)*e.scale)))
}

// instance is one set-up workload. op is the timed operation: it returns
// the scenarios it delivered and fails on any wrong output. tr is nil in
// the untraced pass and on the untraced half of the traced pass. probe,
// when set, follows each traced op untimed and makes the extra calls that
// split the op by layer; after, when set, follows every op untimed (heavy
// checks, cache removal).
type instance struct {
	op    func(i int, tr *tracer) (scenarios int, err error)
	probe func(i int, tr *tracer) error
	after func(i int) error
	close func() error
}

// opSample is one timed op.
type opSample struct {
	ms             float64
	scenarios      int
	mallocs, bytes uint64
	traced         bool
}

// run times op i, then runs its untimed followers.
func (in *instance) run(i int, tr *tracer) (opSample, error) {
	if tr != nil {
		tr.op = i
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	root := tr.begin("op")
	start := time.Now()
	scenarios, err := in.op(i, tr)
	elapsed := time.Since(start)
	tr.end(root)
	runtime.ReadMemStats(&after)
	if err == nil && tr != nil && in.probe != nil {
		root := tr.begin("probe")
		err = in.probe(i, tr)
		tr.end(root)
	}
	if err == nil && in.after != nil {
		err = in.after(i)
	}
	return opSample{
		ms:        float64(elapsed.Nanoseconds()) / 1e6,
		scenarios: scenarios,
		mallocs:   after.Mallocs - before.Mallocs,
		bytes:     after.TotalAlloc - before.TotalAlloc,
		traced:    tr != nil,
	}, err
}

// workload builds an instance from the seed. Set-up generates every input
// and ends with one untimed warm-up op (op 0, traced in the traced pass);
// timed ops count from 1.
type workload struct {
	name  string
	setup func(e *env, tr *tracer) (*instance, error)
}

var workloads = []workload{
	{"steady_bulk", setupSteadyBulk},
	{"population_cold", setupPopulationCold},
	{"population_warm", setupPopulationWarm},
	{"paper_tables", setupPaperTables},
	{"serve_jobs", setupServeJobs},
}

// steadySeeds is how many distinct scenario seeds steady_bulk cycles
// through; every recurrence of a seed must reproduce its digest. Loss
// episodes, and with them allocations, differ by several percent between
// seeds; twenty per run average that down to about two.
const steadySeeds = 20

// steadySpec is steady_bulk's network: a RED and a lossy drop-tail 50 Mb/s
// link, two OLIA and two LIA two-subflow users, three TCP flows per link.
// Long enough that construction is a thousandth of the run.
func steadySpec(seed int64, simSec float64) *scenario.Spec {
	return &scenario.Spec{
		Name: "steady_bulk", Seed: seed,
		WarmupSec: simSec / 6, DurationSec: simSec * 5 / 6,
		Links: []scenario.LinkSpec{
			{RateMbps: 50, Queue: scenario.QueueRED},
			{RateMbps: 50, Queue: scenario.QueueDropTail, LossPct: 0.05},
		},
		Paths: []scenario.PathSpec{
			{Links: []int{0}, DelayMs: 20},
			{Links: []int{1}, DelayMs: 40},
		},
		Flows: []scenario.FlowSpec{
			{Name: "olia", Algorithm: "olia", Paths: []int{0, 1}, Count: 2, StartJitter: true},
			{Name: "lia", Algorithm: "lia", Paths: []int{0, 1}, Count: 2, StartJitter: true},
			{Name: "tcp0", Algorithm: scenario.AlgoTCP, Paths: []int{0}, Count: 3, StartJitter: true},
			{Name: "tcp1", Algorithm: scenario.AlgoTCP, Paths: []int{1}, Count: 3, StartJitter: true},
		},
	}
}

func setupSteadyBulk(e *env, tr *tracer) (*instance, error) {
	simSec := 30 * e.scale
	specs := make([]*scenario.Spec, steadySeeds)
	for k := range specs {
		specs[k] = steadySpec(e.seed+int64(k), simSec)
	}
	digests := make([]*scenario.Digest, steadySeeds)
	var events, runNs float64 // of the last op, for its probe
	op := func(i int, tr *tracer) (int, error) {
		sp := specs[i%steadySeeds]
		s := tr.begin("scenario.Run")
		rep, err := scenario.Run(e.ctx, sp)
		runNs = tr.end(s)
		if err != nil {
			return 0, err
		}
		if len(rep.Violations) > 0 {
			return 0, fmt.Errorf("seed %d: %d invariant violations, first: %s", sp.Seed, len(rep.Violations), rep.Violations[0])
		}
		s = tr.begin("RunReport.Digest")
		d := rep.Digest()
		tr.end(s)
		if prev := digests[i%steadySeeds]; prev == nil {
			digests[i%steadySeeds] = &d
		} else if *prev != d {
			return 0, fmt.Errorf("seed %d: digest differs from its earlier run", sp.Seed)
		}
		events = float64(rep.Processed)
		return 1, nil
	}
	// scenario.Run validates and compiles inside; calling both again on the
	// same spec prices them, so Run reads as Compile + remainder.
	probe := func(i int, tr *tracer) error {
		sp := specs[i%steadySeeds]
		s := tr.begin("scenario.Validate")
		err := sp.Validate()
		tr.end(s)
		if err != nil {
			return err
		}
		s = tr.begin("scenario.Compile")
		_, err = scenario.Compile(sp)
		tr.end(s)
		if err != nil {
			return err
		}
		e.observe("scenario.ns_per_event.steady_bulk", runNs/events)
		e.observe("scenario.events_per_s.steady_bulk", events/(runNs/1e9))
		e.observe("scenario.sim_s_per_wall_s.steady_bulk", simSec/(runNs/1e9))
		if i == 0 {
			e.observe("scenario.events_per_op.steady_bulk", events)
		}
		return nil
	}
	return warmedUp(&instance{op: op, probe: probe}, tr)
}

// warmedUp runs the untimed warm-up op that ends every set-up.
func warmedUp(in *instance, tr *tracer) (*instance, error) {
	_, err := in.run(0, tr)
	if err != nil {
		if in.close != nil {
			_ = in.close() // the warm-up failure is the error to report
		}
		return nil, fmt.Errorf("warm-up op: %w", err)
	}
	return in, nil
}

// coldSpec is population_cold's campaign for op i: the reference
// population under a fresh campaign seed.
func coldSpec(e *env, i int) *campaign.Spec {
	sp := campaign.Default()
	sp.N = e.scaled(sp.N)
	sp.Seed = e.seed + 1000 + int64(i)
	return sp
}

// campaignOpts is how every direct campaign.Run in the benchmark is run.
func campaignOpts() campaign.Options {
	return campaign.Options{Workers: workers, Version: mptcpsim.Version()}
}

// eventsOf reads the total simulator events a campaign's reports carry.
func eventsOf(res *campaign.Result) float64 {
	for _, a := range res.Aggregates {
		if a.Metric == "events_processed" {
			return a.Mean * float64(a.Count)
		}
	}
	return 0
}

// probeIndices is how many scenario indices a traced population_cold op
// re-samples to split campaign.Run into its per-scenario steps.
const probeIndices = 8

// population_cold runs without a cache directory. The campaign cache
// creates one file per scenario, and on the filesystem a checkout lives on
// that cost swung twofold between back-to-back runs of the same code (see
// README.md), which no bound survives. The write path is priced by the
// traced pass instead, as campaign.put_us.
func setupPopulationCold(e *env, tr *tracer) (*instance, error) {
	var res *campaign.Result // of the last op, for its probe
	var bareNs float64
	op := func(i int, tr *tracer) (int, error) {
		sp := coldSpec(e, i)
		s := tr.begin("campaign.Run")
		var err error
		res, err = campaign.Run(e.ctx, sp, campaignOpts())
		bareNs = tr.end(s)
		if err != nil {
			return 0, err
		}
		if res.CacheHits != 0 || res.Violations != 0 {
			return 0, fmt.Errorf("campaign seed %d: %d cache hits without a cache, %d violations", sp.Seed, res.CacheHits, res.Violations)
		}
		return res.N, nil
	}
	// The probe reruns the campaign into a fresh cache directory (the
	// difference to the op is the cache write), then walks the per-scenario
	// steps of the first few indices.
	probe := func(i int, tr *tracer) error {
		sp := coldSpec(e, i)
		sp.CacheDir = filepath.Join(e.out, "cache", "cold")
		if err := os.RemoveAll(sp.CacheDir); err != nil {
			return fmt.Errorf("clearing %s: %w", sp.CacheDir, err)
		}
		s := tr.begin("campaign.Run.cached")
		cached, err := campaign.Run(e.ctx, sp, campaignOpts())
		cachedNs := tr.end(s)
		if err != nil {
			return err
		}
		if cached.Digest() != res.Digest() {
			return fmt.Errorf("campaign seed %d: result differs with and without a cache", sp.Seed)
		}
		e.observe("campaign.put_us", (cachedNs-bareNs)/1e3/float64(sp.N))
		e.observe("campaign.events_per_s.population_cold", eventsOf(res)/(bareNs/1e9))
		var simSec float64
		for idx := 0; idx < sp.N; idx++ {
			sc := sp.SampleSpec(idx)
			simSec += sc.WarmupSec + sc.DurationSec
		}
		e.observe("campaign.sim_s_per_wall_s.population_cold", simSec/(bareNs/1e9))
		for idx := 0; idx < min(probeIndices, sp.N); idx++ {
			s := tr.begin("campaign.SampleSpec")
			sc := sp.SampleSpec(idx)
			tr.end(s)
			s = tr.begin("campaign.CacheKey")
			_, err := campaign.CacheKey(mptcpsim.Version(), sc)
			tr.end(s)
			if err != nil {
				return err
			}
			s = tr.begin("scenario.Compile")
			_, err = scenario.Compile(sc)
			tr.end(s)
			if err != nil {
				return err
			}
			s = tr.begin("scenario.Run")
			_, err = scenario.Run(e.ctx, sc)
			tr.end(s)
			if err != nil {
				return err
			}
		}
		if i == 0 {
			e.observe("campaign.events_per_scenario", eventsOf(res)/float64(res.N))
			size, files, err := dirSize(sp.CacheDir)
			if err != nil {
				return err
			}
			e.observe("campaign.report_bytes", float64(size)/float64(files))
		}
		return nil
	}
	return warmedUp(&instance{op: op, probe: probe}, tr)
}

// dirSize totals the regular files under dir.
func dirSize(dir string) (size int64, files int, err error) {
	err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		size += info.Size()
		files++
		return nil
	})
	if err != nil {
		return 0, 0, fmt.Errorf("sizing %s: %w", dir, err)
	}
	return size, files, nil
}

// population_warm's cache is filled by the first set-up of a run and found
// filled by the later ones (measure clears it before and after). Creating
// its 2000 files took between 0.86 and 1.46 s from run to run on the
// filesystem a checkout lives on, which no bound on setup_s survives five
// times over; so setup_s here is the time to open a filled cache and run
// one op, and the fill is priced by the traced pass as campaign.fill_us.
func setupPopulationWarm(e *env, tr *tracer) (*instance, error) {
	sp := campaign.Default()
	sp.N = e.scaled(2000)
	sp.Seed = e.seed + 77
	sp.CacheDir = filepath.Join(e.out, "cache", "warm")
	s := tr.begin("campaign.Run.fill")
	fill, err := campaign.Run(e.ctx, sp, campaignOpts())
	fillNs := tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("filling the warm cache: %w", err)
	}
	if tr != nil && fill.Simulated == sp.N {
		e.observe("campaign.fill_us", fillNs/1e3/float64(sp.N))
	}
	want := fill.Digest()
	op := func(i int, tr *tracer) (int, error) {
		s := tr.begin("campaign.Run")
		res, err := campaign.Run(e.ctx, sp, campaignOpts())
		hitNs := tr.end(s)
		if err != nil {
			return 0, err
		}
		if res.Simulated != 0 || res.Violations != 0 {
			return 0, fmt.Errorf("warm campaign simulated %d scenarios, %d violations", res.Simulated, res.Violations)
		}
		s = tr.begin("Result.Digest")
		got := res.Digest()
		tr.end(s)
		if got != want {
			return 0, fmt.Errorf("warm campaign digest differs from the run that filled the cache")
		}
		if tr != nil {
			e.observe("campaign.hit_us", hitNs/1e3/float64(res.N))
		}
		return res.N, nil
	}
	return warmedUp(&instance{op: op}, tr)
}

// tableIDs are the paper_tables experiments: one per testbed scenario
// (A, B, C), the fat tree, and the scheduled-stream matrix.
var tableIDs = []string{"fig1b", "table1", "fig5c", "table3", "sched-matrix"}

// tablesBaseSeed is the harness's default. paper_tables does not take its
// seed from -seed: table3 draws one traffic permutation on the fat tree per
// seed, and its host time ranged from 139 to 217 ms over six seeds, which
// would drown any bound on the workload that carries it.
const tablesBaseSeed = 42

func setupPaperTables(e *env, tr *tracer) (*instance, error) {
	cfg := mptcpsim.Config{
		Duration:   sim.Seconds(3 * e.scale),
		Warmup:     sim.Seconds(1 * e.scale),
		DCDuration: sim.Seconds(0.5 * e.scale),
		DCWarmup:   sim.Seconds(0.125 * e.scale),
		Seeds:      1,
		BaseSeed:   tablesBaseSeed,
		FatTreeK:   4,
		Subflows:   []int{2},
		Workers:    workers,
	}
	var jobs int
	lab := mptcpsim.NewLab(mptcpsim.WithConfig(cfg), mptcpsim.WithProgress(func(ev mptcpsim.ProgressEvent) {
		if ev.Kind == mptcpsim.ProgressJobs {
			jobs = ev.Total
		}
	}))
	var want [sha256.Size]byte
	op := func(i int, tr *tracer) (int, error) {
		h := sha256.New()
		s := tr.begin("Lab.RunAll")
		err := lab.RunAll(e.ctx, tableIDs, mptcpsim.FormatText, h)
		tr.end(s)
		if err != nil {
			return 0, err
		}
		var got [sha256.Size]byte
		h.Sum(got[:0])
		if i == 0 {
			want = got
		} else if got != want {
			return 0, fmt.Errorf("op %d rendered bytes different from the first op", i)
		}
		return jobs, nil
	}
	// The probe collects each experiment on its own and renders the five,
	// which splits RunAll by experiment and by collect against render.
	probe := func(i int, tr *tracer) error {
		if i == 0 {
			e.observe("harness.jobs_per_op", float64(jobs))
		}
		results := make([]*mptcpsim.Result, len(tableIDs))
		for k, id := range tableIDs {
			s := tr.begin("Lab.Collect." + id)
			r, err := lab.Collect(e.ctx, id)
			tr.end(s)
			if err != nil {
				return err
			}
			results[k] = r
		}
		s := tr.begin("RenderResult")
		defer tr.end(s)
		for _, r := range results {
			if err := mptcpsim.RenderResult(r, mptcpsim.FormatText, io.Discard); err != nil {
				return err
			}
		}
		return nil
	}
	return warmedUp(&instance{op: op, probe: probe}, tr)
}

// serveVerifyEvery is how often a serve_jobs result is re-derived, untimed,
// by running the same campaign directly.
const serveVerifyEvery = 30

func setupServeJobs(e *env, tr *tracer) (*instance, error) {
	srv := serve.NewServer(e.ctx, serve.Config{Workers: workers})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	client := &http.Client{}
	lab := mptcpsim.NewLab(mptcpsim.WithWorkers(workers))
	n := e.scaled(64)
	specOf := func(i int) campaign.Spec {
		sp := *campaign.Default()
		sp.N = n
		sp.Seed = e.seed + 100 + int64(i)
		return sp
	}
	var res campaign.Result // of the last op, for its probe and check
	var jobNs float64
	var size int

	op := func(i int, tr *tracer) (int, error) {
		job := tr.begin("serve.job")
		s := tr.begin("serve.submit")
		body := fmt.Sprintf(`{"n":%d,"seed":%d}`, n, e.seed+100+int64(i))
		var st serve.Status
		_, err := httpJSON(client, http.MethodPost, base+"/v1/campaigns", body, http.StatusAccepted, &st)
		tr.end(s)
		if err != nil {
			return 0, err
		}
		s = tr.begin("serve.wait")
		err = waitDone(client, base+"/v1/campaigns/"+st.ID+"/events")
		tr.end(s)
		if err != nil {
			return 0, err
		}
		s = tr.begin("serve.result")
		res = campaign.Result{}
		size, err = httpJSON(client, http.MethodGet, base+"/v1/campaigns/"+st.ID+"/result", "", http.StatusOK, &res)
		tr.end(s)
		jobNs = tr.end(job)
		if err != nil {
			return 0, err
		}
		if res.N != n || res.Violations != 0 {
			return 0, fmt.Errorf("job %s: %d scenarios (want %d), %d violations", st.ID, res.N, n, res.Violations)
		}
		return n, nil
	}
	// The probe runs the same campaign in-process through Lab.Campaign (what
	// serve adds is the job minus this) and reads the loopback floor.
	probe := func(i int, tr *tracer) error {
		e.observe("serve.events_per_s", eventsOf(&res)/(jobNs/1e9))
		if i == 0 {
			e.observe("serve.result_bytes", float64(size))
		}
		s := tr.begin("Lab.Campaign")
		_, err := lab.Campaign(e.ctx, specOf(i))
		tr.end(s)
		if err != nil {
			return err
		}
		s = tr.begin("serve.healthz")
		defer tr.end(s)
		_, err = httpJSON(client, http.MethodGet, base+"/v1/healthz", "", http.StatusOK, nil)
		return err
	}
	after := func(i int) error {
		if i%serveVerifyEvery != 0 {
			return nil
		}
		sp := specOf(i)
		direct, err := campaign.Run(e.ctx, &sp, campaignOpts())
		if err != nil {
			return fmt.Errorf("re-deriving job %d: %w", i, err)
		}
		if direct.Digest() != res.Digest() {
			return fmt.Errorf("job %d: served digest differs from campaign.Run on the same spec", i)
		}
		return nil
	}
	closeAll := func() error {
		client.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(e.ctx, 10*time.Second)
		defer cancel()
		err := hs.Shutdown(ctx)
		srv.Close()
		<-served
		if err != nil {
			return fmt.Errorf("stopping the HTTP server: %w", err)
		}
		return nil
	}
	return warmedUp(&instance{op: op, probe: probe, after: after, close: closeAll}, tr)
}

// httpJSON makes one request, requires the given status, decodes the JSON
// body into v unless v is nil, and reports the body's size.
func httpJSON(c *http.Client, method, url, body string, want int, v any) (int, error) {
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		return 0, fmt.Errorf("building %s %s: %w", method, url, err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, fmt.Errorf("%s %s: %w", method, url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, fmt.Errorf("%s %s: reading body: %w", method, url, err)
	}
	if resp.StatusCode != want {
		return 0, fmt.Errorf("%s %s: status %d, want %d: %s", method, url, resp.StatusCode, want, data)
	}
	if v != nil {
		if err := json.Unmarshal(data, v); err != nil {
			return 0, fmt.Errorf("%s %s: decoding body: %w", method, url, err)
		}
	}
	return len(data), nil
}

// waitDone reads a job's NDJSON event stream to its end and requires the
// last status to be "done".
func waitDone(c *http.Client, url string) error {
	resp, err := c.Get(url)
	if err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	var last serve.Status
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			return fmt.Errorf("GET %s: decoding event: %w", url, err)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("GET %s: reading events: %w", url, err)
	}
	if last.State != "done" {
		return fmt.Errorf("job %s ended in state %q: %s", last.ID, last.State, last.Error)
	}
	return nil
}

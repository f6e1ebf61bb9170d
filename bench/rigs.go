package main

import (
	"fmt"
	"runtime"
	"time"

	"mptcpsim"
	"mptcpsim/internal/campaign"
	"mptcpsim/internal/core"
	"mptcpsim/internal/mptcp"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/runner"
	"mptcpsim/internal/scenario"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/stats"
	"mptcpsim/internal/tcp"
)

// The micro-rigs call one layer directly, with no scenario around it, so a
// layer's own cost can be read apart from the workloads that mix them. They
// deliberately repeat the kernel benchmarks of the root bench_test.go (see
// README.md). Every rig runs rigReps times and reports the median. A rig
// records its samples under the name of the per-layer metric it feeds;
// BENCHMARK.json lists those names.

// exactMetrics are the per-layer counts that the simulator's determinism
// makes repeat exactly for one seed; -compare fails when one differs.
var exactMetrics = map[string]bool{
	"tcp.flow_events_per_pkt":            true,
	"tcp.lossy_retx_ratio":               true,
	"scenario.compile_allocs":            true,
	"scenario.events_per_op.steady_bulk": true,
	"campaign.events_per_scenario":       true,
	"campaign.report_bytes":              true,
	"serve.result_bytes":                 true,
	"harness.jobs_per_op":                true,
}

// spanMetrics maps the spans of the traced pass onto the layer metrics
// that are a span's median duration.
var spanMetrics = []struct {
	workload, span, metric string
	perUnit                float64 // nanoseconds per reported unit
}{
	{"steady_bulk", "scenario.Validate", "scenario.validate_us", 1e3},
	{"steady_bulk", "scenario.Compile", "scenario.compile_us", 1e3},
	{"steady_bulk", "scenario.Run", "scenario.run_ms.steady", 1e6},
	{"steady_bulk", "RunReport.Digest", "scenario.digest_us", 1e3},
	{"population_cold", "campaign.SampleSpec", "campaign.sample_us", 1e3},
	{"population_cold", "campaign.CacheKey", "campaign.cachekey_us", 1e3},
	{"serve_jobs", "serve.submit", "serve.submit_ms", 1e6},
	{"serve_jobs", "serve.wait", "serve.wait_ms", 1e6},
	{"serve_jobs", "serve.result", "serve.result_ms", 1e6},
	{"serve_jobs", "serve.healthz", "serve.healthz_us", 1e3},
	{"paper_tables", "Lab.Collect.fig1b", "harness.collect_ms.fig1b", 1e6},
	{"paper_tables", "Lab.Collect.table1", "harness.collect_ms.table1", 1e6},
	{"paper_tables", "Lab.Collect.fig5c", "harness.collect_ms.fig5c", 1e6},
	{"paper_tables", "Lab.Collect.table3", "harness.collect_ms.table3", 1e6},
	{"paper_tables", "Lab.Collect.sched-matrix", "harness.collect_ms.sched-matrix", 1e6},
	{"paper_tables", "RenderResult", "harness.render_us", 1e3},
}

// observeSpans turns the traced pass's spans into layer-metric samples.
func observeSpans(e *env, tr *tracer) {
	for _, sm := range spanMetrics {
		for _, ns := range tr.durations(sm.workload, sm.span) {
			e.observe(sm.metric, ns/sm.perUnit)
		}
	}
	// What serve adds to a job is the job minus the same campaign run
	// through Lab.Campaign in-process.
	job, direct := tr.durations("serve_jobs", "serve.job"), tr.durations("serve_jobs", "Lab.Campaign")
	if len(job) > 0 && len(direct) > 0 {
		e.observe("serve.overhead_ms", (quantile(job, 0.5)-quantile(direct, 0.5))/1e6)
	}
}

// rigReps is how often each micro-rig runs; the median is reported.
const rigReps = 3

// perIter times fn(n) rigReps times and records nanoseconds per iteration.
func (e *env) perIter(metric string, n int, fn func(n int)) {
	for rep := 0; rep < rigReps; rep++ {
		start := time.Now()
		fn(n)
		e.observe(metric, float64(time.Since(start).Nanoseconds())/float64(n))
	}
}

// mallocs counts the heap allocations fn makes.
func mallocs(fn func()) (count, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
}

func runRigs(e *env) error {
	rigSim(e)
	rigNetem(e)
	rigTCP(e)
	rigCore(e)
	if err := rigMPTCP(e); err != nil {
		return err
	}
	if err := rigScenario(e); err != nil {
		return err
	}
	if err := rigPopulation(e); err != nil {
		return err
	}
	rigRunnerStats(e)
	return nil
}

// chain is a handler that re-arms itself one microsecond ahead until its
// count runs out: one schedule, one pop and one dispatch per iteration.
type chain struct {
	s    *sim.Sim
	left int
}

func (c *chain) RunEvent(sim.Time) {
	if c.left--; c.left > 0 {
		c.s.ScheduleAfter(sim.Microsecond, c)
	}
}

// idle is a handler for events that are parked and never meant to fire.
type idle struct{}

func (idle) RunEvent(sim.Time) {}

// park leaves n events far beyond any rig's horizon, so the heap the rig
// works on has that depth.
func park(s *sim.Sim, n int) {
	for i := 0; i < n; i++ {
		s.Schedule(sim.Seconds(3600)+sim.Second.Scale(i), idle{})
	}
}

func rigSim(e *env) {
	n := e.scaled(400_000)
	e.perIter("sim.handler_event_ns", n, func(n int) {
		s := sim.New(1)
		s.ScheduleAfter(sim.Microsecond, &chain{s: s, left: n})
		s.Run()
	})
	closures := func(n int) {
		s := sim.New(1)
		left := n
		var tick func()
		tick = func() {
			if left--; left > 0 {
				s.After(sim.Microsecond, tick)
			}
		}
		s.After(sim.Microsecond, tick)
		s.Run()
	}
	e.perIter("sim.closure_event_ns", n, closures)
	_, bytes := mallocs(func() { closures(n) })
	e.observe("sim.closure_event_bytes", bytes/float64(n))
	e.perIter("sim.deep_heap_event_ns", n, func(n int) {
		s := sim.New(1)
		park(s, 4096)
		s.ScheduleAfter(sim.Microsecond, &chain{s: s, left: n})
		s.RunUntil(sim.Seconds(1800))
	})
	e.perIter("sim.timer_resched_ns", n, func(n int) {
		s := sim.New(1)
		park(s, 1024)
		tm := s.ScheduleTimer(sim.Second, idle{})
		for i := 0; i < n; i++ {
			s.Reschedule(tm, sim.Second+sim.Millisecond.Scale(i&1023))
		}
	})
}

// transit sends n packets one at a time through entry to a collector, with
// the production packet lifecycle: pooled at the source, freed at the end.
func transit(s *sim.Sim, entry netem.Node, n int) {
	pool := netem.PoolFor(s)
	route := netem.NewRoute(entry, &netem.Collector{})
	for i := 0; i < n; i++ {
		pool.NewData(0, int64(i)*netem.MSS, netem.MSS, s.Now(), route).SendOn()
		s.Run()
	}
}

func rigNetem(e *env) {
	n := e.scaled(400_000)
	rigs := []struct {
		metric string
		entry  func(s *sim.Sim) netem.Node
	}{
		{"netem.pipe_transit_ns", func(s *sim.Sim) netem.Node { return netem.NewPipe(s, sim.Millisecond, "p") }},
		{"netem.droptail_service_ns", func(s *sim.Sim) netem.Node { return netem.NewDropTail(s, 100e6, 100, "q") }},
		{"netem.red_service_ns", func(s *sim.Sim) netem.Node { return netem.NewRED(s, 100e6, netem.PaperRED(100e6), "q") }},
		{"netem.randomloss_ns", func(s *sim.Sim) netem.Node { return netem.NewRandomLoss(s, 0.01) }},
	}
	var allocs float64
	for _, r := range rigs {
		s := sim.New(1)
		entry := r.entry(s)
		transit(s, entry, 64) // fill the packet and event pools
		e.perIter(r.metric, n, func(n int) { transit(s, entry, n) })
		// The route and collector are two allocations per call, not per
		// packet; only what grows with n counts.
		few, _ := mallocs(func() { transit(s, entry, 1) })
		many, _ := mallocs(func() { transit(s, entry, n) })
		allocs += (many - few) / float64(n)
	}
	e.observe("netem.allocs_per_pkt", allocs/float64(len(rigs)))
}

// flowCost is what one run of the single-flow rig took.
type flowCost struct {
	ns, pkts, events, allocs, retx float64
}

// flowRig is one TCP flow over a 100 Mb/s drop-tail link with a 20 ms
// round trip, optionally behind a random-loss element.
func flowRig(e *env, lossProb float64) flowCost {
	s := sim.New(1)
	fwd := netem.NewLink(s, netem.LinkConfig{RateBps: 100e6, Delay: 10 * sim.Millisecond, Kind: netem.QueueDropTail}, "fwd")
	rev := netem.NewLink(s, netem.LinkConfig{RateBps: 1000e6, Delay: 10 * sim.Millisecond, Kind: netem.QueueDropTail, DropTailPkts: 10_000}, "rev")
	src := tcp.NewSrc(s, 1, "flow", tcp.Config{})
	sink := tcp.NewSink(s)
	hops := []netem.Node{fwd.Q, fwd.P, sink}
	if lossProb > 0 {
		hops = append([]netem.Node{netem.NewRandomLoss(s, lossProb)}, hops...)
	}
	src.SetRoute(netem.NewRoute(hops...))
	sink.SetRoute(netem.NewRoute(rev.Q, rev.P, src))
	src.Start(0)
	start := time.Now()
	allocs, _ := mallocs(func() { s.RunUntil(sim.Seconds(10 * e.scale)) })
	ns := float64(time.Since(start).Nanoseconds())
	st := src.Stats()
	return flowCost{ns, float64(st.SentPkts), float64(s.Processed()), allocs, float64(st.RetxPkts)}
}

func rigTCP(e *env) {
	for rep := 0; rep < rigReps; rep++ {
		c := flowRig(e, 0)
		e.observe("tcp.flow_ns_per_pkt", c.ns/c.pkts)
		e.observe("tcp.flow_events_per_pkt", c.events/c.pkts)
		e.observe("tcp.flow_allocs_per_pkt", c.allocs/c.pkts)
		c = flowRig(e, 0.01)
		e.observe("tcp.lossy_flow_ns_per_pkt", c.ns/c.pkts)
		e.observe("tcp.lossy_retx_ratio", c.retx/c.pkts)
	}
}

// stubConn is a fixed connection state for calling a controller or a
// scheduler with nothing else running: mptcp.SchedView without a Conn.
type stubConn struct {
	cwnd     []float64
	srtt     []float64
	inflight []int64
}

func newStubConn(n int) *stubConn {
	c := &stubConn{}
	for i := 0; i < n; i++ {
		c.cwnd = append(c.cwnd, float64(10+3*i))
		c.srtt = append(c.srtt, 0.02*float64(1+i))
		c.inflight = append(c.inflight, int64(4+i)*netem.MSS)
	}
	return c
}

func (c *stubConn) NumFlows() int             { return len(c.cwnd) }
func (c *stubConn) CwndPkts(i int) float64    { return c.cwnd[i] }
func (c *stubConn) SRTT(i int) float64        { return c.srtt[i] }
func (c *stubConn) MSS() int                  { return netem.MSS }
func (c *stubConn) InFlightBytes(i int) int64 { return c.inflight[i] }
func (c *stubConn) PathUp(int) bool           { return true }

// sink keeps the compiler from discarding a rig's calls.
var sink float64

func rigCore(e *env) {
	n := e.scaled(2_000_000)
	rigs := []struct {
		metric   string
		ctrl     core.Controller
		subflows int
	}{
		{"core.acked_ns.olia", core.NewOLIA(), 2},
		{"core.acked_ns.lia", core.NewLIA(), 2},
		{"core.acked_ns.uncoupled", core.NewUncoupled(), 2},
		{"core.acked_ns.fullycoupled", core.NewFullyCoupled(), 2},
		{"core.acked_ns.olia_8", core.NewOLIA(), 8},
	}
	for _, r := range rigs {
		v := newStubConn(r.subflows)
		e.perIter(r.metric, n, func(n int) {
			for i := 0; i < n; i++ {
				sink += r.ctrl.Acked(v, i%r.subflows, netem.MSS, true)
			}
		})
	}
}

// twoPath builds a two-subflow OLIA connection over two 50 Mb/s RED links
// with 20 and 40 ms round trips.
func twoPath(s *sim.Sim) *mptcp.Conn {
	rev := netem.NewLink(s, netem.LinkConfig{RateBps: 1000e6, Delay: sim.Millisecond, Kind: netem.QueueDropTail, DropTailPkts: 10_000}, "rev")
	conn := mptcp.New(s, "conn", core.NewOLIA(), tcp.Config{})
	for i := 0; i < 2; i++ {
		l := netem.NewLink(s, netem.LinkConfig{RateBps: 50e6, Delay: (10 * sim.Millisecond).Scale(1 + i)}, fmt.Sprint("l", i))
		sf := conn.AddSubflow(1 + i)
		sf.SetRoutes(netem.NewRoute(l.Q, l.P, sf.Sink), netem.NewRoute(rev.Q, rev.P, sf.Src))
	}
	return conn
}

// sentPkts totals the data segments a connection's subflows transmitted.
func sentPkts(c *mptcp.Conn) float64 {
	var n int64
	for _, sf := range c.Subflows() {
		n += sf.Src.Stats().SentPkts
	}
	return float64(n)
}

func rigMPTCP(e *env) error {
	n := e.scaled(2_000_000)
	v := newStubConn(4)
	for _, name := range []string{"pull", "minrtt", "roundrobin", "ecf", "redundant"} {
		sched, err := mptcp.NewScheduler(name)
		if err != nil {
			return fmt.Errorf("scheduler rig: %w", err)
		}
		e.perIter("mptcp.pick_ns."+name, n, func(n int) {
			for i := 0; i < n; i++ {
				sink += float64(sched.Pick(v, i&3, 1<<20))
			}
		})
	}
	for rep := 0; rep < rigReps; rep++ {
		s := sim.New(1)
		conn := twoPath(s)
		conn.Start(0)
		start := time.Now()
		s.RunUntil(sim.Seconds(10 * e.scale))
		e.observe("mptcp.conn_ns_per_pkt", float64(time.Since(start).Nanoseconds())/sentPkts(conn))

		s = sim.New(1)
		conn = twoPath(s)
		sched, err := mptcp.NewScheduler("minrtt")
		if err != nil {
			return fmt.Errorf("stream rig: %w", err)
		}
		st := mptcp.NewStreamSched(conn, int64(e.scaled(20<<20)), 0, sched)
		st.Start(0)
		start = time.Now()
		s.RunUntil(sim.Seconds(600))
		ns := float64(time.Since(start).Nanoseconds())
		if !st.Done() {
			return fmt.Errorf("stream rig: %d of %d bytes delivered in 600 simulated seconds", st.InOrderBytes(), st.TotalBytes())
		}
		e.observe("mptcp.stream_ns_per_pkt", ns/sentPkts(conn))
	}
	return nil
}

// rigScenario prices one Compile of the steady_bulk spec in allocations.
// Each call is measured on its own and the median reported, so a stray
// runtime allocation in one call cannot blur a count that is otherwise
// exact.
func rigScenario(e *env) error {
	sp := steadySpec(e.seed, 30*e.scale)
	for i := 0; i < e.scaled(400); i++ {
		var err error
		count, bytes := mallocs(func() { _, err = scenario.Compile(sp) })
		if err != nil {
			return fmt.Errorf("compile rig: %w", err)
		}
		e.observe("scenario.compile_allocs", count)
		e.observe("scenario.compile_bytes", bytes)
	}
	return nil
}

// rigPopulation walks the first campaign of population_cold one scenario
// at a time on one goroutine, then runs it through campaign.Run without a
// cache: the ratio is how much of two workers the engine keeps busy, and
// the walk also gives Compile's share of a sampled scenario.
func rigPopulation(e *env) error {
	sp := coldSpec(e, 0)
	for rep := 0; rep < rigReps; rep++ {
		var stepNs, compileNs, runNs float64
		for idx := 0; idx < sp.N; idx++ {
			start := time.Now()
			sc := sp.SampleSpec(idx)
			if _, err := campaign.CacheKey(mptcpsim.Version(), sc); err != nil {
				return fmt.Errorf("population rig: %w", err)
			}
			stepNs += float64(time.Since(start).Nanoseconds())
			start = time.Now()
			if _, err := scenario.Compile(sc); err != nil {
				return fmt.Errorf("population rig: %w", err)
			}
			compileNs += float64(time.Since(start).Nanoseconds())
			start = time.Now()
			if _, err := scenario.Run(e.ctx, sc); err != nil {
				return fmt.Errorf("population rig: %w", err)
			}
			runNs += float64(time.Since(start).Nanoseconds())
		}
		start := time.Now()
		if _, err := campaign.Run(e.ctx, sp, campaignOpts()); err != nil {
			return fmt.Errorf("population rig: %w", err)
		}
		wallNs := float64(time.Since(start).Nanoseconds())
		e.observe("scenario.compile_share.population", compileNs/runNs)
		e.observe("campaign.efficiency", (stepNs+runNs)/(workers*wallNs))
	}
	return nil
}

func rigRunnerStats(e *env) {
	jobs := e.scaled(100_000)
	pool := runner.New(workers)
	e.perIter("runner.map_ns_per_job", jobs, func(n int) {
		// The context is never cancelled, so Map cannot fail.
		_, _ = runner.Map(e.ctx, pool, n, func(i int) struct{} { return struct{}{} })
	})
	n := e.scaled(2_000_000)
	e.perIter("stats.sketch_add_ns", n, func(n int) {
		sk := stats.NewSketch(stats.DefaultQuantileError)
		for i := 0; i < n; i++ {
			sk.Add(float64(1 + i%1000))
		}
		sink += sk.Quantile(0.5)
	})
	e.perIter("stats.summary_add_ns", n, func(n int) {
		var sum stats.Summary
		for i := 0; i < n; i++ {
			sum.Add(float64(1 + i%1000))
		}
		sink += sum.Mean()
	})
}

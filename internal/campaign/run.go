package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"sync"

	"mptcpsim/internal/runner"
	"mptcpsim/internal/scenario"
	"mptcpsim/internal/stats"
)

// Options configures one campaign execution — the engine knobs that are
// not part of the campaign's identity (they never enter cache keys beyond
// Version, and never the Result digest).
type Options struct {
	// Workers bounds concurrent simulations; <= 0 selects GOMAXPROCS.
	Workers int
	// Version is the code-version component of every cache key; the facade
	// passes the hash of the locked API surface so a rebuild with a changed
	// surface never reuses stale results. Empty disables no machinery —
	// it is simply a constant key component.
	Version string
	// Progress, when non-nil, receives cumulative (done, total) scenario
	// counts — (0, N) first, then one call per scenario folded — on the
	// goroutine that called Run.
	Progress func(done, total int)
}

// flaggedCap bounds the per-campaign list of scenario names with invariant
// violations; the count is always exact.
const flaggedCap = 10

// Aggregate is the streamed statistical summary of one metric across the
// campaign population: moments from a Welford fold, quantiles from the
// deterministic sketch (relative error DefaultQuantileError).
type Aggregate struct {
	Metric string `json:"metric"`
	// Count is the number of scenarios that produced this metric (the
	// completion-time metric, for example, only exists for finite
	// transfers that finished).
	Count  int     `json:"count"`
	Mean   float64 `json:"mean"`
	Stddev float64 `json:"stddev"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	P10    float64 `json:"p10"`
	P50    float64 `json:"p50"`
	P90    float64 `json:"p90"`
	P99    float64 `json:"p99"`
}

// Result is the outcome of a campaign: exact counters plus one Aggregate
// per population metric. Everything except Version and the cache counters
// is a pure function of the campaign Spec — the property Digest fingerprints
// and the worker-count/warm-cache identity tests pin down.
type Result struct {
	Name    string `json:"name"`
	N       int    `json:"n"`
	Seed    int64  `json:"seed"`
	Version string `json:"version,omitempty"`
	// Simulated and CacheHits split N by how each scenario's report was
	// obtained; Simulated + CacheHits == N on success.
	Simulated int `json:"simulated"`
	CacheHits int `json:"cache_hits"`
	// Violations counts invariant violations across every run; Flagged
	// names the first few offending scenarios (replay with the campaign
	// seed and the scenario's index).
	Violations int         `json:"violations"`
	Flagged    []string    `json:"flagged,omitempty"`
	Aggregates []Aggregate `json:"aggregates"`
}

// Digest fingerprints the campaign's statistical content: the SHA-256 of
// the Result's JSON with Version and the cache counters cleared, so a
// warm-cache re-run at a different worker count under a different build of
// unchanged simulation code reports the identical digest.
func (r *Result) Digest() string {
	c := *r
	c.Version = ""
	c.Simulated = 0
	c.CacheHits = 0
	data, err := json.Marshal(&c)
	if err != nil {
		// A Result is plain data; its encoding cannot fail.
		panic(fmt.Sprintf("campaign: encoding result digest: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// metric is one population metric: a name, and the extractor that pulls
// its sample out of a run report (ok=false skips the scenario).
type metric struct {
	name string
	get  func(rep *scenario.RunReport) (float64, bool)
}

// userFlow reports whether a compiled flow replica belongs to the sampled
// user (the sampler names it "user"; the compiler suffixes "-<replica>").
func userFlow(name string) bool { return strings.HasPrefix(name, "user-") }

// metrics is the campaign's metric set in report order.
var metrics = [...]metric{
	{name: "user_goodput_mbps", get: func(rep *scenario.RunReport) (float64, bool) {
		var v float64
		for i := range rep.Flows {
			if userFlow(rep.Flows[i].Name) {
				v += rep.Flows[i].GoodputMbps
			}
		}
		return v, true
	}},
	{name: "bg_goodput_mbps", get: func(rep *scenario.RunReport) (float64, bool) {
		var v float64
		any := false
		for i := range rep.Flows {
			if !userFlow(rep.Flows[i].Name) {
				v += rep.Flows[i].GoodputMbps
				any = true
			}
		}
		return v, any
	}},
	{name: "total_goodput_mbps", get: func(rep *scenario.RunReport) (float64, bool) {
		var v float64
		for i := range rep.Flows {
			v += rep.Flows[i].GoodputMbps
		}
		return v, true
	}},
	{name: "user_timeouts", get: func(rep *scenario.RunReport) (float64, bool) {
		var v float64
		for i := range rep.Flows {
			if userFlow(rep.Flows[i].Name) {
				v += float64(rep.Flows[i].Timeouts)
			}
		}
		return v, true
	}},
	{name: "user_completion_sec", get: func(rep *scenario.RunReport) (float64, bool) {
		for i := range rep.Flows {
			f := &rep.Flows[i]
			if userFlow(f.Name) && f.Stream != nil && f.Stream.Done {
				return f.Stream.CompletionSec, true
			}
		}
		return 0, false
	}},
	{name: "events_processed", get: func(rep *scenario.RunReport) (float64, bool) {
		return float64(rep.Processed), true
	}},
}

// outcome carries what the fold needs of one scenario back from the pool:
// the metric samples, extracted on the worker, and not the report, so a
// report decoded from the cache never leaves its job.
type outcome struct {
	v  [len(metrics)]float64
	ok [len(metrics)]bool // v[k] is a sample; metrics[k].get said so
	// violations counts the run's invariant violations; name is the
	// scenario's, set only when there are some.
	violations int
	name       string
	hit        bool
	// entry is a simulated run's pack record when the Run has a cache,
	// for the fold to write; it is nil otherwise.
	entry *[]byte
	err   error
}

// extract reads one scenario's outcome off its report.
func extract(rep *scenario.RunReport, hit bool) outcome {
	o := outcome{violations: len(rep.Violations), hit: hit}
	if o.violations > 0 {
		o.name = rep.Name
	}
	for k := range metrics {
		o.v[k], o.ok[k] = metrics[k].get(rep)
	}
	return o
}

// aggregators fold the samples of every metric, in metrics' order.
type aggregators [len(metrics)]struct {
	sum stats.Summary
	sk  *stats.Sketch
}

// newAggregators builds the folds, each with an empty sketch.
func newAggregators() *aggregators {
	as := new(aggregators)
	for k := range as {
		as[k].sk = stats.NewSketch(stats.DefaultQuantileError)
	}
	return as
}

// fold ingests one scenario's samples.
func (as *aggregators) fold(o *outcome) {
	for k := range as {
		if o.ok[k] {
			as[k].sum.Add(o.v[k])
			as[k].sk.Add(o.v[k])
		}
	}
}

// aggregates finalizes the fold into the reportable summaries.
func (as *aggregators) aggregates() []Aggregate {
	out := make([]Aggregate, 0, len(as))
	for k := range as {
		a := &as[k]
		out = append(out, Aggregate{
			Metric: metrics[k].name,
			Count:  a.sum.N(),
			Mean:   a.sum.Mean(),
			Stddev: a.sum.Stdev(),
			Min:    a.sum.Min(),
			Max:    a.sum.Max(),
			P10:    a.sk.Quantile(0.10),
			P50:    a.sk.Quantile(0.50),
			P90:    a.sk.Quantile(0.90),
			P99:    a.sk.Quantile(0.99),
		})
	}
	return out
}

// sampledPool and reportPool recycle each job's scenario and, on a cache
// hit, the report decoded into: with both warm, a hit allocates its name
// and little else.
var (
	sampledPool = sync.Pool{New: func() any { return new(sampled) }}
	reportPool  = sync.Pool{New: func() any { return new(scenario.RunReport) }}
)

// simulate runs one sampled scenario. It is a variable so that a test can
// fail chosen scenarios.
var simulate = scenario.Run

// Run executes the campaign: for each index it samples the scenario,
// consults the campaign's cache pack, simulates on a miss, and folds the
// report's metric samples into the streaming aggregators.
//
// Execution is one runner.Stream. Each job samples its scenario into
// pooled scratch, reads or simulates the report, and extracts the fold's
// samples from it on the worker, so a report read from the cache goes back
// to its pool before the job ends. The fold consumes the outcomes on this
// goroutine in index order while later scenarios are still running, and no
// more than one runner window of outcomes is ever resident — memory is
// O(workers), not O(N). Because scenario i is a pure function of (Spec, i)
// and the fold order is the index order, the Result is byte-identical at
// any worker count, and — cache records carrying every float as its bits —
// identical again when every scenario is a cache hit.
//
// The first scenario to fail, in index order, is the error Run returns; the
// fold then cancels the stream, so at most a window of later scenarios
// start. Cancelling ctx abandons the campaign within one scenario boundary
// and returns an error wrapping ctx.Err(). Whether the Run finished, was
// cancelled or failed, the scenarios it delivered in index order before
// the first gap stay cached — a Run that simulated any of them commits a
// new pack at its end, keeping the old pack's records past them — so a
// canceled campaign resumes from its delivered prefix.
func Run(ctx context.Context, sp *Spec, opts Options) (*Result, error) {
	sp = sp.fill()
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	cc, err := openCache(sp.CacheDir, opts.Version, sp)
	if err != nil {
		return nil, err
	}
	progress := opts.Progress
	if progress == nil {
		progress = func(int, int) {}
	}
	progress(0, sp.N)

	as := newAggregators()
	res := &Result{Name: sp.Name, N: sp.N, Seed: sp.Seed, Version: opts.Version}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var failed error
	err = runner.Stream(ctx, runner.New(opts.Workers), sp.N, func(i int) outcome {
		s := sampledPool.Get().(*sampled)
		defer sampledPool.Put(s)
		sp.sampleInto(s, i)
		spec := &s.Spec
		// Without a cache there is nothing to address: no key is
		// derived, no record read and none encoded.
		var key entryKey
		if cc != nil {
			var err error
			if key, err = cacheKey(opts.Version, spec); err != nil {
				return outcome{err: err}
			}
			rep := reportPool.Get().(*scenario.RunReport)
			defer reportPool.Put(rep)
			if cc.old.get(i, key, spec, rep) {
				return extract(rep, true)
			}
		}
		rep, err := simulate(ctx, spec)
		if err != nil {
			return outcome{err: err}
		}
		o := extract(rep, false)
		if cc != nil {
			o.entry = record(key, rep)
		}
		return o
	}, func(i int, o outcome) {
		if failed != nil {
			return
		}
		if o.err != nil {
			failed = fmt.Errorf("campaign %q: scenario %d: %w", sp.Name, i, o.err)
			cancel()
			return
		}
		if cc != nil {
			if err := cc.keep(i, &o); err != nil {
				failed = fmt.Errorf("campaign %q: %w", sp.Name, err)
				cancel()
				return
			}
		}
		if o.hit {
			res.CacheHits++
		} else {
			res.Simulated++
		}
		if o.violations > 0 {
			res.Violations += o.violations
			if len(res.Flagged) < flaggedCap {
				res.Flagged = append(res.Flagged, o.name)
			}
		}
		as.fold(&o)
		progress(i+1, sp.N)
	})
	if cc != nil {
		if cerr := cc.commit(); cerr != nil && failed == nil && err == nil {
			failed = fmt.Errorf("campaign %q: %w", sp.Name, cerr)
		}
	}
	if failed != nil {
		return nil, failed
	}
	if err != nil {
		return nil, fmt.Errorf("campaign %q: %w", sp.Name, err)
	}
	res.Aggregates = as.aggregates()
	return res, nil
}

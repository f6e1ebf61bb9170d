package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

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

// metric is one streaming aggregator: a name, the extractor that pulls the
// sample out of a run report (ok=false skips the scenario), and the folds.
type metric struct {
	name string
	get  func(rep *scenario.RunReport) (float64, bool)
	sum  stats.Summary
	sk   *stats.Sketch
}

// userFlow reports whether a compiled flow replica belongs to the sampled
// user (the sampler names it "user"; the compiler suffixes "-<replica>").
func userFlow(name string) bool { return strings.HasPrefix(name, "user-") }

// newMetrics builds the campaign's aggregator set in report order.
func newMetrics() []*metric {
	ms := []*metric{
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
	for _, m := range ms {
		m.sk = stats.NewSketch(stats.DefaultQuantileError)
	}
	return ms
}

// fold ingests one scenario's report into every aggregator.
func fold(ms []*metric, rep *scenario.RunReport) {
	for _, m := range ms {
		if v, ok := m.get(rep); ok {
			m.sum.Add(v)
			m.sk.Add(v)
		}
	}
}

// aggregates finalizes the fold into the reportable summaries.
func aggregates(ms []*metric) []Aggregate {
	out := make([]Aggregate, 0, len(ms))
	for _, m := range ms {
		out = append(out, Aggregate{
			Metric: m.name,
			Count:  m.sum.N(),
			Mean:   m.sum.Mean(),
			Stddev: m.sum.Stdev(),
			Min:    m.sum.Min(),
			Max:    m.sum.Max(),
			P10:    m.sk.Quantile(0.10),
			P50:    m.sk.Quantile(0.50),
			P90:    m.sk.Quantile(0.90),
			P99:    m.sk.Quantile(0.99),
		})
	}
	return out
}

// outcome carries one scenario's run back from the pool.
type outcome struct {
	rep *scenario.RunReport
	hit bool
	err error
}

// Run executes the campaign: for each index it samples the scenario,
// consults the content-addressed cache, simulates on a miss, and folds the
// report into the streaming aggregators.
//
// Execution is one runner.Stream: workers compute independent per-index
// outcomes and the fold consumes them on this goroutine in index order
// while later scenarios are still running, and no more than one runner
// window of reports is ever resident — memory is O(workers), not O(N).
// Because scenario i is a pure function of (Spec, i) and the fold order is
// the index order, the Result is byte-identical at any worker count, and —
// cache entries carrying every float as its bits — identical again when
// every scenario is a cache hit.
//
// The first scenario to fail, in index order, is the error Run returns; the
// fold then cancels the stream, so at most a window of later scenarios
// start. Cancelling ctx abandons the campaign within one scenario boundary
// and returns an error wrapping ctx.Err(). The cache directory keeps every
// completed run, so a canceled campaign resumes incrementally.
func Run(ctx context.Context, sp *Spec, opts Options) (*Result, error) {
	sp = sp.fill()
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	cc, err := openCache(sp.CacheDir)
	if err != nil {
		return nil, err
	}
	progress := opts.Progress
	if progress == nil {
		progress = func(int, int) {}
	}
	progress(0, sp.N)

	ms := newMetrics()
	res := &Result{Name: sp.Name, N: sp.N, Seed: sp.Seed, Version: opts.Version}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var failed error
	err = runner.Stream(ctx, runner.New(opts.Workers), sp.N, func(i int) outcome {
		spec := sp.SampleSpec(i)
		// Without a cache there is nothing to address: no key is
		// derived, and get and put are not called.
		var key string
		if cc != nil {
			var err error
			if key, err = CacheKey(opts.Version, spec); err != nil {
				return outcome{err: err}
			}
			if rep, ok := cc.get(key, spec); ok {
				return outcome{rep: rep, hit: true}
			}
		}
		rep, err := scenario.Run(ctx, spec)
		if err != nil {
			return outcome{err: err}
		}
		if cc != nil {
			if err := cc.put(key, rep); err != nil {
				return outcome{err: err}
			}
		}
		return outcome{rep: rep}
	}, func(i int, o outcome) {
		if failed != nil {
			return
		}
		if o.err != nil {
			failed = fmt.Errorf("campaign %q: scenario %d: %w", sp.Name, i, o.err)
			cancel()
			return
		}
		if o.hit {
			res.CacheHits++
		} else {
			res.Simulated++
		}
		if len(o.rep.Violations) > 0 {
			res.Violations += len(o.rep.Violations)
			if len(res.Flagged) < flaggedCap {
				res.Flagged = append(res.Flagged, o.rep.Name)
			}
		}
		fold(ms, o.rep)
		progress(i+1, sp.N)
	})
	if failed != nil {
		return nil, failed
	}
	if err != nil {
		return nil, fmt.Errorf("campaign %q: %w", sp.Name, err)
	}
	res.Aggregates = aggregates(ms)
	return res, nil
}

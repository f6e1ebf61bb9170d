package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
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

// userFlow reports whether a compiled flow replica belongs to a sampled
// multipath user: the sampler names the user groups "user", "user1", …
// and the background groups "bg0", "bg1", …, and the compiler suffixes
// "-<replica>".
func userFlow(name string) bool { return strings.HasPrefix(name, "user") }

// The campaign's population metrics, in report order: an outcome holds
// metric k's sample at index k.
const (
	userGoodput     = iota // the user's goodput, Mb/s
	bgGoodput              // the background flows' goodput, when there are any
	totalGoodput           // every flow's goodput
	userTimeouts           // the user's retransmission timeouts
	userCompletion         // the user's completion time, when its transfer finished
	eventsProcessed        // the simulator events the run processed
	numMetrics
)

// metricNames names the metrics in the Result.
var metricNames = [numMetrics]string{
	userGoodput:     "user_goodput_mbps",
	bgGoodput:       "bg_goodput_mbps",
	totalGoodput:    "total_goodput_mbps",
	userTimeouts:    "user_timeouts",
	userCompletion:  "user_completion_sec",
	eventsProcessed: "events_processed",
}

// outcome carries what the fold needs of one scenario back from the pool:
// the metric samples, extracted on the worker, and not the report, so a
// report decoded from the cache never leaves its job.
type outcome struct {
	v  [numMetrics]float64
	ok [numMetrics]bool // v[k] is a sample of metric k
	// violations counts the run's invariant violations; name is the
	// scenario's, set only when there are some.
	violations int
	name       string
	hit        bool
	// entry is a simulated run's pack record when the Run has a cache,
	// for the fold to write; it is nil otherwise.
	entry *[]byte
	err   error
	// crash is the panic the scenario raised, which the fold reports as
	// the stream would have had the job been the scenario alone.
	crash *runner.PanicError
}

// extract sets *o to one scenario's outcome, read off its report in one
// pass over the flows, each classified as the user's or background once.
// Every sum adds its flows in report order.
func extract(o *outcome, rep *scenario.RunReport, hit bool) {
	*o = outcome{violations: len(rep.Violations), hit: hit}
	if o.violations > 0 {
		o.name = rep.Name
	}
	var user, bg, total, timeouts, completion float64
	anyBg, done := false, false
	for i := range rep.Flows {
		f := &rep.Flows[i]
		total += f.GoodputMbps
		if !userFlow(f.Name) {
			bg += f.GoodputMbps
			anyBg = true
			continue
		}
		user += f.GoodputMbps
		timeouts += float64(f.Timeouts)
		if !done && f.Stream != nil && f.Stream.Done {
			completion, done = f.Stream.CompletionSec, true
		}
	}
	o.v = [numMetrics]float64{user, bg, total, timeouts, completion, float64(rep.Processed)}
	o.ok = [numMetrics]bool{true, anyBg, true, true, done, true}
}

// aggregators fold the samples of every metric, in report order.
type aggregators [numMetrics]struct {
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
			Metric: metricNames[k],
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

// scratch is what one job works in: the scenario it samples each index
// into, the bytes it hashes into each key, and the report a hit decodes
// into. A job takes one from scratchPool and puts it back as it ends, so a
// warm hit touches no pool of its own and allocates its name and little
// else. blockPool recycles the outcomes of a block.
type scratch struct {
	s   sampled
	key []byte
	rep scenario.RunReport
}

var (
	scratchPool = sync.Pool{New: func() any { return new(scratch) }}
	blockPool   = sync.Pool{New: func() any { return new(block) }}
)

// blockLen is the most records one runner job reads: a job reads a block
// of up to blockLen consecutive records with one ReadAt and folds them
// back as one delivery, so a warm hit pays a share of one system call and
// of one job's dispatch.
const blockLen = 32

// simulate runs one sampled scenario, and stream runs a Run's jobs. They
// are variables so that a test can fail chosen scenarios and count the
// jobs.
var (
	simulate = scenario.Run
	stream   = runner.Stream[unit]
)

// spans deals a Run's indices out to runner jobs: the records the pack
// addresses in blocks of blockLen, the last one possibly short, then every
// index past them as a job of its own, which reads nothing.
type spans struct {
	addressed int // records the pack addresses, from index 0
	blocks    int // jobs that read a block: ⌈addressed/blockLen⌉
}

func newSpans(addressed int) spans {
	return spans{addressed: addressed, blocks: (addressed + blockLen - 1) / blockLen}
}

// jobs is how many runner jobs cover n indices.
func (s spans) jobs(n int) int { return s.blocks + n - s.addressed }

// span is the indices [lo, hi) job j covers, and whether it reads them as
// a block.
func (s spans) span(j int) (lo, hi int, block bool) {
	if j < s.blocks {
		lo = j * blockLen
		return lo, min(lo+blockLen, s.addressed), true
	}
	lo = s.addressed + j - s.blocks
	return lo, lo + 1, false
}

// unit is one runner job's delivery: a lone index's outcome, or a block's.
type unit struct {
	one outcome
	blk *block // from blockPool; nil for a lone index
}

// block is a block job's outcomes in index order, fewer than the block's
// length when the context was cancelled under the job.
type block struct {
	out  [blockLen]outcome
	n    int    // outcomes in out
	next *block // links the blocks reserveBlocks holds
}

// reserveBlocks makes blockPool hold n blocks. A Run reserves as many as
// its stream can have out at once, its window and the one the fold is
// reading, so that how many its jobs hold at a time, which scheduling
// decides, does not decide what it allocates: after one Run of its size,
// the next allocates no block.
func reserveBlocks(n int) {
	var held *block
	for ; n > 0; n-- {
		b := blockPool.Get().(*block)
		b.next, held = held, b
	}
	for held != nil {
		b := held
		held, b.next = b.next, nil
		blockPool.Put(b)
	}
}

// work holds what a Run's jobs share.
type work struct {
	ctx     context.Context
	sp      *Spec
	version string
	cc      *cache
	spans   spans
}

// job is runner job j. A block job reads its records with one ReadAt into
// a pooled buffer, which goes back to the pool before the job ends, and
// runs each index on its record; a failed read leaves every index to be
// simulated. Before each index of a block the job polls the context's
// done channel, without blocking, and stops once it is closed.
func (w *work) job(j int) unit {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	lo, hi, inBlock := w.spans.span(j)
	if !inBlock {
		var u unit
		w.scenario(lo, nil, sc, &u.one)
		return u
	}
	p := &w.cc.old
	bp := entryPool.Get().(*[]byte)
	defer entryPool.Put(bp)
	data, read := p.readBlock(lo, hi, bp)
	b := blockPool.Get().(*block)
	done := w.ctx.Done()
	for i := lo; i < hi && !closed(done); i++ {
		var rec []byte
		if read {
			rec = p.record(data, lo, i)
		}
		o := &b.out[b.n]
		b.n++
		if w.scenario(i, rec, sc, o); o.err != nil {
			break // the fold stops at the error
		}
	}
	return unit{blk: b}
}

// closed reports whether done, a context's done channel, is closed,
// without blocking.
func closed(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// scenario samples index i into sc and fills *o with its outcome: a hit
// when rec, the pack's record i or nil, passes every check, and otherwise
// a simulation. A panic becomes o.crash, a *runner.PanicError whose Job is
// i, whichever job ran the index.
func (w *work) scenario(i int, rec []byte, sc *scratch, o *outcome) {
	defer func() {
		if v := recover(); v != nil {
			buf := make([]byte, 64<<10)
			*o = outcome{crash: &runner.PanicError{Job: i, Value: v, Stack: buf[:runtime.Stack(buf, false)]}}
		}
	}()
	w.sp.sampleInto(&sc.s, i)
	spec := &sc.s.Spec
	// Without a cache there is nothing to address: no key is derived, no
	// record read and none encoded.
	var key entryKey
	if w.cc != nil {
		var err error
		if key, err = cacheKey(&sc.key, w.version, spec); err != nil {
			*o = outcome{err: err}
			return
		}
		if rec != nil && hit(rec, key, spec, &sc.rep) {
			extract(o, &sc.rep, true)
			return
		}
	}
	rep, err := simulate(w.ctx, spec)
	if err != nil {
		*o = outcome{err: err}
		return
	}
	extract(o, rep, false)
	if w.cc != nil {
		o.entry = record(key, rep)
	}
}

// fold consumes a Run's outcomes in index order on the Run's goroutine.
type fold struct {
	sp       *Spec
	cc       *cache
	res      *Result
	as       *aggregators
	progress func(done, total int)
	cancel   context.CancelFunc
	spans    spans
	// failed is the first scenario error; crash the first panic; gap is
	// set once a block came back short, and nothing past it is folded.
	failed error
	crash  *runner.PanicError
	gap    bool
}

// deliver folds job j's unit and hands a block's outcomes back to the
// pool.
func (f *fold) deliver(j int, u unit) {
	lo, hi, _ := f.spans.span(j)
	if u.blk == nil {
		f.take(lo, &u.one)
		return
	}
	b := u.blk
	for k := range b.n {
		f.take(lo+k, &b.out[k])
	}
	if b.n < hi-lo {
		f.gap = true
	}
	*b = block{}
	blockPool.Put(b)
}

// take folds scenario i's outcome. A crashed scenario is not folded, as
// the stream emits nothing for a job that panicked.
func (f *fold) take(i int, o *outcome) {
	if o.crash != nil {
		if f.crash == nil {
			f.crash = o.crash
		}
		return
	}
	if f.failed != nil || f.gap {
		return
	}
	if o.err != nil {
		f.failed = fmt.Errorf("campaign %q: scenario %d: %w", f.sp.Name, i, o.err)
		f.cancel()
		return
	}
	if f.cc != nil {
		if err := f.cc.keep(i, o); err != nil {
			f.failed = fmt.Errorf("campaign %q: %w", f.sp.Name, err)
			f.cancel()
			return
		}
	}
	res := f.res
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
	f.as.fold(o)
	f.progress(i+1, f.sp.N)
}

// Run executes the campaign: for each index it samples the scenario,
// consults the campaign's cache pack, simulates on a miss, and folds the
// report's metric samples into the streaming aggregators.
//
// Execution is one runner.Stream. Its jobs are the blocks of up to
// blockLen consecutive records the pack addresses, then one job per index
// past them. A block job reads its records with one ReadAt into a pooled
// buffer; for each index it samples the scenario into pooled scratch,
// decodes the record or, if the record fails a check, simulates, and
// extracts the fold's samples on the worker, so a report read from the
// cache goes back to its pool before the job ends. A job past the records
// does the same without a record. The fold consumes the outcomes on this
// goroutine in index order while later jobs are still running, and no
// more than one runner window of jobs is ever resident — memory is
// O(workers), not O(N). Because scenario i is a pure function of (Spec, i)
// and the fold order is the index order, the Result is byte-identical at
// any worker count, and — cache records carrying every float as its bits —
// identical again when every scenario is a cache hit.
//
// The first scenario to fail, in index order, is the error Run returns; the
// fold then cancels the stream, so at most a window of later jobs start.
// A scenario that panics is a *runner.PanicError whose Job is its index.
// Cancelling ctx abandons the campaign within one block of hits or one
// scenario and returns an error wrapping ctx.Err(). Whether the Run
// finished, was cancelled or failed, the scenarios it delivered in index
// order before the first gap stay cached — a Run that simulated any of
// them commits a new pack at its end, keeping the old pack's records past
// them — so a canceled campaign resumes from its delivered prefix.
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

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	pool := runner.New(opts.Workers)
	var sps spans
	if cc != nil {
		sps = newSpans(cc.old.addressed())
		reserveBlocks(min(sps.blocks, pool.Window()+1))
	}
	w := &work{ctx: ctx, sp: sp, version: opts.Version, cc: cc, spans: sps}
	f := &fold{sp: sp, cc: cc, as: newAggregators(), progress: progress, cancel: cancel, spans: sps,
		res: &Result{Name: sp.Name, N: sp.N, Seed: sp.Seed, Version: opts.Version}}
	err = stream(ctx, pool, sps.jobs(sp.N), w.job, f.deliver)
	if f.crash != nil {
		err = f.crash
	}
	failed := f.failed
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
	f.res.Aggregates = f.as.aggregates()
	return f.res, nil
}

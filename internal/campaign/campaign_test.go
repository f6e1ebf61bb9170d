package campaign

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"mptcpsim/internal/runner"
	"mptcpsim/internal/scenario"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden file from this run")

// tinySpec is the fast test population: short runs, small links, every
// sampler feature (finite transfers, schedulers, faults) exercised.
func tinySpec() *Spec {
	return &Spec{
		Name: "tiny",
		N:    24,
		Seed: 5,
		// Windows stay comfortably past the 1 s start-jitter span so every
		// flow actually runs inside the measurement window.
		WarmupSec:    Const(1),
		DurationSec:  Uniform(1.5, 2.5),
		Paths:        IntRange{Min: 1, Max: 2},
		LinkRateMbps: LogUniform(2, 8),
		LinkDelayMs:  Uniform(5, 20),
		LinkLossPct:  Choice(0, 0, 0.5),
		Queues:       []string{string(scenario.QueueRED), string(scenario.QueueDropTail)},
		Algorithms:   []string{"olia", "lia"},
		FlowBytes:    Choice(0, 200_000),
		Schedulers:   []string{"minrtt", "roundrobin"},
		Background:   IntRange{Min: 0, Max: 1},
		StartJitter:  true,
		Faults:       FaultSpec{Events: IntRange{Min: 0, Max: 1}, Rate: true, Blackhole: true, Flap: true},
	}
}

// TestSampledSpecsValidate proves every scenario the samplers can draw is
// accepted by the scenario DSL's own validator, and that sampling is a pure
// function of (Spec, index).
func TestSampledSpecsValidate(t *testing.T) {
	for _, sp := range []*Spec{Default(), tinySpec()} {
		sp = sp.fill()
		if err := sp.Validate(); err != nil {
			t.Fatalf("%s: spec invalid: %v", sp.Name, err)
		}
		for i := 0; i < 200; i++ {
			s := sp.SampleSpec(i)
			if err := s.Validate(); err != nil {
				t.Errorf("%s[%d]: sampled scenario invalid: %v", sp.Name, i, err)
			}
			if again := sp.SampleSpec(i); !reflect.DeepEqual(s, again) {
				t.Errorf("%s[%d]: re-sampling the same index changed the scenario", sp.Name, i)
			}
		}
	}
}

// TestSampleSpecConcurrent: SampleSpec draws from pooled generators, and a
// generator's previous user must not show in the next one's draws. Eight
// goroutines sample 256 indices in a shuffled order (run under -race) and
// every spec equals the one a lone caller gets.
func TestSampleSpecConcurrent(t *testing.T) {
	sp := Default().fill()
	const n, workers = 256, 8
	want := make([]*scenario.Spec, n)
	for i := range want {
		want[i] = sp.SampleSpec(i)
	}
	order := rand.New(rand.NewSource(9)).Perm(n)
	got := make([]*scenario.Spec, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < n; k += workers {
				got[order[k]] = sp.SampleSpec(order[k])
			}
		}(w)
	}
	wg.Wait()
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("index %d: concurrent sample differs from the sequential one:\n%+v\n%+v", i, got[i], want[i])
		}
	}
}

// TestSampleIntoReusesScratch: indices 0..199 sampled one after another
// into one scratch each equal SampleSpec's scenario field for field and
// share its cache key, whatever the scratch held before — a population
// with more paths, flows or fault events, or none.
func TestSampleIntoReusesScratch(t *testing.T) {
	churn := tinySpec()
	churn.Paths = IntRange{Min: 1, Max: 4}
	churn.Background = IntRange{Min: 0, Max: 3}
	churn.Faults = FaultSpec{Events: IntRange{Min: 0, Max: 6}, Rate: true, Blackhole: true, Flap: true}
	s := new(sampled)
	for _, sp := range []*Spec{Default(), tinySpec(), churn} {
		sp = sp.fill()
		for i := 0; i < 200; i++ {
			sp.sampleInto(s, i)
			want := sp.SampleSpec(i)
			if !reflect.DeepEqual(&s.Spec, want) {
				t.Fatalf("%s[%d]: sampled into scratch:\n got %+v\nwant %+v", sp.Name, i, s.Spec, *want)
			}
			if got := mustKey(t, &s.Spec); got != mustKey(t, want) {
				t.Fatalf("%s[%d]: scratch spec keys as %s, SampleSpec's as %s", sp.Name, i, got, mustKey(t, want))
			}
		}
	}
}

// TestSampleDiversity guards against a draw-order bug collapsing the
// population: across indices the default campaign must actually vary path
// counts, controllers, and fault presence.
func TestSampleDiversity(t *testing.T) {
	sp := Default().fill()
	paths := map[int]bool{}
	algos := map[string]bool{}
	faulted := 0
	for i := 0; i < 100; i++ {
		s := sp.SampleSpec(i)
		paths[len(s.Paths)] = true
		algos[s.Flows[0].Algorithm] = true
		if len(s.Timeline) > 0 {
			faulted++
		}
	}
	if len(paths) < 3 {
		t.Errorf("path counts drawn: %v, want all of 1..3", paths)
	}
	if len(algos) < 2 {
		t.Errorf("controllers drawn: %v, want both", algos)
	}
	if faulted == 0 || faulted == 100 {
		t.Errorf("%d/100 scenarios faulted, want a proper mix", faulted)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"no duration", func(sp *Spec) { sp.DurationSec = Dist{} }},
		{"no rate", func(sp *Spec) { sp.LinkRateMbps = Dist{} }},
		{"no algorithms", func(sp *Spec) { sp.Algorithms = nil }},
		{"unknown algorithm", func(sp *Spec) { sp.Algorithms = []string{"cubic9000"} }},
		{"unknown queue", func(sp *Spec) { sp.Queues = []string{"codel"} }},
		{"unknown scheduler", func(sp *Spec) { sp.Schedulers = []string{"warp"} }},
		{"scheduler without flow bytes", func(sp *Spec) { sp.FlowBytes = Dist{} }},
		{"inverted paths", func(sp *Spec) { sp.Paths = IntRange{Min: 3, Max: 1} }},
		{"zero paths", func(sp *Spec) { sp.Paths = IntRange{} }},
		{"negative N", func(sp *Spec) { sp.N = -1 }},
		{"loss at 100", func(sp *Spec) { sp.LinkLossPct = Const(100) }},
		{"inverted uniform", func(sp *Spec) { sp.DurationSec = Uniform(4, 2) }},
		{"log-uniform from zero", func(sp *Spec) { sp.LinkRateMbps = LogUniform(0, 8) }},
		{"empty choice", func(sp *Spec) { sp.LinkLossPct = Dist{Kind: DistChoice} }},
		{"kindless dist", func(sp *Spec) { sp.DurationSec = Dist{Min: 1, Max: 2} }},
		{"unknown kind", func(sp *Spec) { sp.DurationSec = Dist{Kind: "gauss", Min: 1, Max: 2} }},
		{"faults without kinds", func(sp *Spec) { sp.Faults = FaultSpec{Events: IntRange{Max: 2}} }},
		{"oversized faults", func(sp *Spec) {
			sp.Faults = FaultSpec{Events: IntRange{Max: 64}, Rate: true}
		}},
	}
	for _, c := range cases {
		sp := tinySpec()
		c.mutate(sp)
		if err := sp.fill().Validate(); err == nil {
			t.Errorf("%s: Validate accepted the broken spec", c.name)
		}
	}
}

// TestValidateRejectsNonFinite puts NaN, +Inf and −Inf in each float slot
// of every distribution shape, in every Dist field of the campaign spec:
// Validate rejects each. A NaN flow size used to sample an unbounded bulk
// flow; a NaN loss failed only at the cache key, a NaN rate only when drawn.
func TestValidateRejectsNonFinite(t *testing.T) {
	distType := reflect.TypeOf(Dist{})
	shapes := func(v float64) []Dist {
		return []Dist{Const(v), Uniform(v, 2), Uniform(1, v), LogUniform(v, 2), LogUniform(1, v), Choice(1, v)}
	}
	specType, fields := reflect.TypeOf(Spec{}), 0
	for i := 0; i < specType.NumField(); i++ {
		field := specType.Field(i)
		if field.Type != distType {
			continue
		}
		fields++
		set := func(d Dist) *Spec {
			sp := tinySpec()
			reflect.ValueOf(sp).Elem().Field(i).Set(reflect.ValueOf(d))
			return sp
		}
		for _, d := range shapes(1.5) {
			if err := set(d).Validate(); err != nil {
				t.Fatalf("%s = %+v: %v", field.Name, d, err)
			}
		}
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for _, d := range shapes(bad) {
				if set(d).Validate() == nil {
					t.Errorf("%s = %+v: Validate accepted it", field.Name, d)
				}
			}
		}
	}
	if fields < 6 {
		t.Fatalf("found %d Dist fields in Spec, want at least 6", fields)
	}
}

func TestDistSampleBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, d := range []Dist{Const(3), Uniform(2, 5), LogUniform(1, 100), Choice(1, 2, 7)} {
		if err := d.validate("x", 0, 1000); err != nil {
			t.Fatalf("%+v: %v", d, err)
		}
		for i := 0; i < 200; i++ {
			v := d.sample(rng)
			if v < 1 || v > 100 {
				switch d.Kind {
				case DistLogUniform:
					t.Fatalf("log-uniform drew %g outside [1, 100]", v)
				default:
				}
			}
		}
	}
	r := IntRange{Min: 2, Max: 4}
	for i := 0; i < 100; i++ {
		if v := r.sample(rng); v < 2 || v > 4 {
			t.Fatalf("IntRange drew %d outside [2, 4]", v)
		}
	}
}

func TestCacheKey(t *testing.T) {
	sp := tinySpec().fill()
	a := sp.SampleSpec(0)
	k1, err := CacheKey("v1", a)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := CacheKey("v1", sp.SampleSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Error("identical (version, spec) produced different keys")
	}
	if k3, _ := CacheKey("v2", a); k3 == k1 {
		t.Error("changing the code version did not change the key")
	}
	b := sp.SampleSpec(0)
	b.Seed++
	if k4, _ := CacheKey("v1", b); k4 == k1 {
		t.Error("changing the scenario seed did not change the key")
	}
	b.Links[0].LossPct = math.NaN()
	if _, err := CacheKey("v1", b); err == nil {
		t.Error("a NaN loss encoded into a key")
	}

	// The encoding is pinned: a change to it must bump cacheSchema, which
	// changes this key too.
	pinned := &scenario.Spec{
		Name: "pin", Seed: 42, WarmupSec: 1, DurationSec: 2.5,
		Links: []scenario.LinkSpec{
			{RateMbps: 8, LossPct: 0.5},
			{RateMbps: 4, DelayMs: 2, Queue: scenario.QueueDropTail, BufferPkts: 50},
		},
		Paths: []scenario.PathSpec{{Links: []int{0}, DelayMs: 20}, {Links: []int{1}, DelayMs: 40}},
		Flows: []scenario.FlowSpec{
			{Name: "user", Algorithm: "olia", Paths: []int{0, 1}, StartJitter: true, FlowBytes: 1 << 20, Scheduler: "minrtt"},
			{Name: "bg0", Algorithm: scenario.AlgoTCP, Paths: []int{0}, Count: 2},
		},
		Timeline: []scenario.TimelineEvent{
			{AtSec: 1.5, Link: &scenario.LinkSetpoint{Link: 1, LossPct: scenario.Float(100)}},
			{AtSec: 2, Path: &scenario.PathFlap{Path: 0, Up: true}},
		},
	}
	const want = "afad0c37f6a64d29439f24c28e2a5e4fa3c8e4cc0f8f78a666a0707e33dd12c5"
	if got, err := CacheKey("v1", pinned); err != nil || got != want {
		t.Errorf("pinned key = %s, %v; want %s", got, err, want)
	}
}

func TestCacheRoundTrip(t *testing.T) {
	rep := &scenario.RunReport{Name: "x", Seed: 3, Processed: 42,
		Flows: []scenario.FlowReport{{Name: "user-0", GoodputMbps: 1.25, GoodputBytes: 10000}}}
	spec := &scenario.Spec{Name: "x", Seed: 3}
	key := mustEntryKey(t, spec)
	path := filepath.Join(t.TempDir(), "x.pack")
	if p := openPack(path, 1); p.addressed() != 0 {
		t.Fatal("a missing pack addresses records")
	}
	commitPack(t, path, rec(key, rep))
	p := openPack(path, 1)
	got, ok := getFresh(&p, 0, key, spec)
	if !ok {
		t.Fatal("miss after commit")
	}
	if !reflect.DeepEqual(got, rep) {
		t.Fatalf("round trip changed the report: %+v vs %+v", got, rep)
	}
	// A record read at another index, or one that decodes to some other
	// run, is a miss.
	if _, ok := getFresh(&p, 1, key, spec); ok {
		t.Error("record 0 served as record 1")
	}
	for _, other := range []*scenario.Spec{{Name: "y", Seed: 3}, {Name: "x", Seed: 4}} {
		if _, ok := getFresh(&p, 0, key, other); ok {
			t.Errorf("record for x/3 served as %s/%d", other.Name, other.Seed)
		}
	}
	p.close()
	// A record filed under another key is a miss, and so is one of another
	// schema.
	other := rec(mustEntryKey(t, &scenario.Spec{Name: "x", Seed: 4}), rep)
	stale := append(key[:], scenario.AppendReport([]byte("mptcpsim-campaign-cache-v7\n"), rep)...)
	for _, bad := range [][]byte{other, stale} {
		commitPack(t, path, bad)
		p := openPack(path, 1)
		if _, ok := getFresh(&p, 0, key, spec); ok {
			t.Errorf("record %q treated as a hit", bad)
		}
		p.close()
	}
	// A torn or corrupted pack is a miss, not an error.
	commitPack(t, path, rec(key, rep))
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]byte{whole[:len(whole)-1], append(whole[:len(whole):len(whole)], 0), []byte("{truncated"), nil} {
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		p := openPack(path, 1)
		if _, ok := getFresh(&p, 0, key, spec); ok {
			t.Errorf("corrupted pack %q treated as a hit", bad)
		}
		p.close()
	}
}

// TestRunWorkerIdentity is the campaign determinism theorem: the full
// rendered Result — aggregates, digest, every byte — is identical at
// worker counts 1, 3 and 8, for an N that crosses the 8-worker stream
// window three times without being a multiple of it, for N = 1, and for an
// N smaller than the worker count.
func TestRunWorkerIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates scenarios; skipped in -short")
	}
	for _, n := range []int{1, 2, tinySpec().N, 3*runner.New(8).Window() + 5} {
		sp := tinySpec()
		sp.N = n
		sp.DurationSec = Uniform(1.2, 1.8)
		var ref []byte
		for _, workers := range []int{1, 3, 8} {
			res, err := Run(context.Background(), sp, Options{Workers: workers, Version: "test"})
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			if res.Simulated != sp.N || res.CacheHits != 0 {
				t.Fatalf("n=%d workers=%d: simulated %d / hits %d, want %d / 0",
					n, workers, res.Simulated, res.CacheHits, sp.N)
			}
			data, err := res.RenderJSON()
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = data
			} else if !bytes.Equal(ref, data) {
				t.Errorf("n=%d workers=%d: rendered result differs from workers=1:\n%s\nvs\n%s",
					n, workers, data, ref)
			}
		}
	}
}

// TestRunScenarioError: scenarios k and k+2 fail (simulate is swapped for
// one that fails them). Run returns scenario k's error — not a later
// scenario's, and not the cancellation the fold answers it with — the
// stream stops within a window of k instead of running all N, and the
// pack the failed Run commits holds the k scenarios it delivered.
func TestRunScenarioError(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates scenarios; skipped in -short")
	}
	const workers, k = 3, 7
	window := runner.New(workers).Window()
	sp := tinySpec()
	sp.N = k + 4*window
	sp.DurationSec = Uniform(1.2, 1.8)
	sp.CacheDir = t.TempDir()
	failing := map[string]bool{}
	for _, i := range []int{k, k + 2} {
		failing[sp.fill().SampleSpec(i).Name] = true
	}
	injected := errors.New("injected failure")
	t.Cleanup(func() { simulate = scenario.Run })
	simulate = func(ctx context.Context, spec *scenario.Spec) (*scenario.RunReport, error) {
		if failing[spec.Name] {
			return nil, injected
		}
		return scenario.Run(ctx, spec)
	}
	var done int
	_, err := Run(context.Background(), sp, Options{Workers: workers, Version: "test",
		Progress: func(d, _ int) { done = d }})
	if !errors.Is(err, injected) || !strings.Contains(err.Error(), fmt.Sprintf("scenario %d: injected failure", k)) {
		t.Fatalf("err = %v, want scenario %d's injected failure", err, k)
	}
	if errors.Is(err, context.Canceled) {
		t.Errorf("err = %v wraps context.Canceled", err)
	}
	if done >= k+window+workers {
		t.Errorf("%d scenarios completed after scenario %d failed, want fewer than %d", done, k, k+window+workers)
	}
	if got := len(packRecords(t, onlyPack(t, sp.CacheDir))); got != k {
		t.Errorf("the failed run committed %d records, want the %d before scenario %d", got, k, k)
	}
}

// TestRunPanicKeepsIndices: the stream delivers on past a job that
// panicked, but the pack keeps only the prefix before it, so every record
// stays at its index and the next Run hits on exactly that prefix.
func TestRunPanicKeepsIndices(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates scenarios; skipped in -short")
	}
	const k = 3
	sp := tinySpec()
	sp.N = 8
	sp.DurationSec = Uniform(1.2, 1.8)
	opts := Options{Workers: 2, Version: "test"}
	ref, err := Run(context.Background(), sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	sp.CacheDir = t.TempDir()
	name := sp.fill().SampleSpec(k).Name
	t.Cleanup(func() { simulate = scenario.Run })
	simulate = func(ctx context.Context, spec *scenario.Spec) (*scenario.RunReport, error) {
		if spec.Name == name {
			panic("injected panic")
		}
		return scenario.Run(ctx, spec)
	}
	if _, err := Run(context.Background(), sp, opts); !errors.Is(err, runner.ErrJobPanic) {
		t.Fatalf("err = %v, want a job panic", err)
	}
	if got := len(packRecords(t, onlyPack(t, sp.CacheDir))); got != k {
		t.Errorf("the run committed %d records, want the %d before the panic", got, k)
	}
	simulate = scenario.Run
	res, err := Run(context.Background(), sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits != k || res.Digest() != ref.Digest() {
		t.Errorf("after the panic: %d hits, want %d; digest equal %v", res.CacheHits, k, res.Digest() == ref.Digest())
	}
}

// TestRunWarmCache is the issue's acceptance criterion: a 200-scenario
// campaign re-run against a warm cache performs zero simulations and
// reproduces the cold result byte-for-byte.
func TestRunWarmCache(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates scenarios; skipped in -short")
	}
	sp := tinySpec()
	sp.N = 200
	sp.DurationSec = Uniform(1.2, 1.8)
	sp.CacheDir = filepath.Join(t.TempDir(), "cache")
	cold, err := Run(context.Background(), sp, Options{Workers: 8, Version: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Simulated != 200 || cold.CacheHits != 0 {
		t.Fatalf("cold run: simulated %d / hits %d, want 200 / 0", cold.Simulated, cold.CacheHits)
	}
	warm, err := Run(context.Background(), sp, Options{Workers: 4, Version: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Simulated != 0 || warm.CacheHits != 200 {
		t.Fatalf("warm run: simulated %d / hits %d, want 0 / 200", warm.Simulated, warm.CacheHits)
	}
	if cold.Digest() != warm.Digest() {
		t.Errorf("warm digest %s differs from cold %s", warm.Digest(), cold.Digest())
	}
	cj, _ := cold.RenderJSON()
	wj, _ := warm.RenderJSON()
	// The cache counters are the only permitted difference.
	warm.Simulated, warm.CacheHits = cold.Simulated, cold.CacheHits
	wj2, _ := warm.RenderJSON()
	if bytes.Equal(cj, wj) {
		t.Error("cache counters did not change between cold and warm runs")
	}
	if !bytes.Equal(cj, wj2) {
		t.Errorf("warm aggregates differ from cold:\n%s\nvs\n%s", wj2, cj)
	}

	// A version bump invalidates every entry: the re-run simulates again.
	bumped, err := Run(context.Background(), sp, Options{Workers: 8, Version: "test2"})
	if err != nil {
		t.Fatal(err)
	}
	if bumped.Simulated != 200 {
		t.Errorf("version bump: simulated %d, want 200", bumped.Simulated)
	}
}

// entryFiles lists a per-entry cache tree's entry files in a fixed order.
func entryFiles(t *testing.T, dir, ext string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*", "*"+ext))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	return files
}

// TestRunSwappedEntries: a record at another run's index is not that run.
// With the pack's first and last records swapped, both scenarios are
// re-simulated and rewritten.
func TestRunSwappedEntries(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates scenarios; skipped in -short")
	}
	sp := tinySpec()
	sp.CacheDir = t.TempDir()
	opts := Options{Workers: 4, Version: "test"}
	cold, err := Run(context.Background(), sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	path := onlyPack(t, sp.CacheDir)
	recs := packRecords(t, path)
	if len(recs) != sp.N {
		t.Fatalf("%d records after a cold run of %d", len(recs), sp.N)
	}
	recs[0], recs[len(recs)-1] = recs[len(recs)-1], recs[0]
	commitPack(t, path, recs...)
	for _, want := range []int{2, 0} {
		res, err := Run(context.Background(), sp, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Simulated != want || res.CacheHits != sp.N-want {
			t.Errorf("simulated %d / hits %d, want %d / %d", res.Simulated, res.CacheHits, want, sp.N-want)
		}
		if res.Digest() != cold.Digest() {
			t.Errorf("digest %s differs from the cold run's %s", res.Digest(), cold.Digest())
		}
	}
}

// TestRunIgnoresOldSchemaTrees: a directory filled under an earlier schema
// yields no hits, and its tree is left byte for byte as it was beside the
// run's pack. Every earlier schema filed one entry per scenario under
// <key[:2]>/: v1 JSON entries at <key>.json and v2 binary ones at
// <key>.bin, both under keys hashed from the spec's JSON and their own
// tag; v3 binary ones under this schema's key; v4 and v7 binary ones under
// keys hashed from their tag and scenario.AppendSpec.
func TestRunIgnoresOldSchemaTrees(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates scenarios; skipped in -short")
	}
	// jsonKey is a v1 or v2 key: the tag, the version, then the spec's JSON.
	jsonKey := func(t *testing.T, tag string, spec *scenario.Spec) string {
		data, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(append([]byte(tag+"\x00test\x00"), data...))
		return hex.EncodeToString(sum[:])
	}
	// specEntry is a v4 or v7 entry: keyed by the tag, the version and
	// scenario.AppendSpec, opened by the tag's line.
	specEntry := func(tag string) func(t *testing.T, dir string, spec *scenario.Spec) (string, []byte) {
		return func(t *testing.T, dir string, spec *scenario.Spec) (string, []byte) {
			data, err := scenario.AppendSpec([]byte(tag+"\x00test\x00"), spec)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			key := hex.EncodeToString(sum[:])
			entry := scenario.AppendReport([]byte(tag+"\n"),
				&scenario.RunReport{Name: spec.Name, Seed: spec.Seed, Processed: 1})
			return filepath.Join(dir, key[:2], key+".bin"), entry
		}
	}
	for _, tc := range []struct {
		schema string
		// plant returns where an entry for spec goes and what it holds.
		plant func(t *testing.T, dir string, spec *scenario.Spec) (string, []byte)
	}{
		{"v1", func(t *testing.T, dir string, spec *scenario.Spec) (string, []byte) {
			key := jsonKey(t, "mptcpsim-campaign-cache-v1", spec)
			entry, err := json.Marshal(&scenario.RunReport{Name: spec.Name, Seed: spec.Seed, Processed: 1})
			if err != nil {
				t.Fatal(err)
			}
			return filepath.Join(dir, key[:2], key+".json"), entry
		}},
		{"v2", func(t *testing.T, dir string, spec *scenario.Spec) (string, []byte) {
			key := jsonKey(t, "mptcpsim-campaign-cache-v2", spec)
			entry := scenario.AppendReport([]byte("mptcpsim-campaign-cache-v2\n"),
				&scenario.RunReport{Name: spec.Name, Seed: spec.Seed, Processed: 1})
			return filepath.Join(dir, key[:2], key+".bin"), entry
		}},
		{"v3", func(t *testing.T, dir string, spec *scenario.Spec) (string, []byte) {
			key, err := CacheKey("test", spec)
			if err != nil {
				t.Fatal(err)
			}
			entry := scenario.AppendReport([]byte("mptcpsim-campaign-cache-v3\n"),
				&scenario.RunReport{Name: spec.Name, Seed: spec.Seed, Processed: 1})
			return filepath.Join(dir, key[:2], key+".bin"), entry
		}},
		{"v4", specEntry("mptcpsim-campaign-cache-v4")},
		{"v7", specEntry("mptcpsim-campaign-cache-v7")},
	} {
		t.Run(tc.schema, func(t *testing.T) {
			sp := tinySpec()
			sp.N = 4
			sp.CacheDir = t.TempDir()
			filled := sp.fill()
			old := map[string][]byte{}
			for i := 0; i < sp.N; i++ {
				path, entry := tc.plant(t, sp.CacheDir, filled.SampleSpec(i))
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, entry, 0o644); err != nil {
					t.Fatal(err)
				}
				old[path] = entry
			}
			res, err := Run(context.Background(), sp, Options{Workers: 2, Version: "test"})
			if err != nil {
				t.Fatal(err)
			}
			if res.Simulated != sp.N || res.CacheHits != 0 {
				t.Errorf("simulated %d / hits %d over a %s tree, want %d / 0", res.Simulated, res.CacheHits, tc.schema, sp.N)
			}
			if got := len(entryFiles(t, sp.CacheDir, ".bin")) + len(entryFiles(t, sp.CacheDir, ".json")); got != sp.N {
				t.Errorf("%d entries after the run, want the %d planted", got, sp.N)
			}
			if packs, err := filepath.Glob(filepath.Join(sp.CacheDir, "*.pack")); err != nil || len(packs) != 1 {
				t.Errorf("packs after the run: %q, %v; want one", packs, err)
			}
			for path, planted := range old {
				if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, planted) {
					t.Errorf("%s entry %s changed: %q, %v", tc.schema, path, got, err)
				}
			}
		})
	}
}

func TestRunProgressAndCancel(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates scenarios; skipped in -short")
	}
	sp := tinySpec()
	sp.N = 4
	var last, total int
	_, err := Run(context.Background(), sp, Options{Workers: 2, Progress: func(d, tot int) {
		if d < last {
			t.Errorf("progress went backwards: %d after %d", d, last)
		}
		last, total = d, tot
	}})
	if err != nil {
		t.Fatal(err)
	}
	if last != 4 || total != 4 {
		t.Errorf("final progress %d/%d, want 4/4", last, total)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, sp, Options{Workers: 2}); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled campaign returned %v, want context.Canceled", err)
	}
}

func TestRunRejectsInvalidSpec(t *testing.T) {
	sp := tinySpec()
	sp.Algorithms = nil
	if _, err := Run(context.Background(), sp, Options{}); err == nil {
		t.Fatal("Run accepted an invalid campaign spec")
	}
}

// TestGolden locks the rendered text report byte-for-byte under a fixed
// code version. Regenerate with
//
//	go test ./internal/campaign -run TestGolden -update
func TestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates scenarios; skipped in -short")
	}
	sp := tinySpec()
	sp.N = 16
	res, err := Run(context.Background(), sp, Options{Workers: 4, Version: "test"})
	if err != nil {
		t.Fatal(err)
	}
	got := res.RenderText()
	path := filepath.Join("testdata", "golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("campaign text report drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

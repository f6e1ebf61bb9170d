package campaign

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"mptcpsim/internal/runner"
	"mptcpsim/internal/scenario"
)

// countingPack is a pack held in memory that counts the reads made of its
// records, every read that starts before the trailer.
type countingPack struct {
	memPack
	trailer int64
	reads   *atomic.Int64
}

func (c countingPack) ReadAt(b []byte, off int64) (int, error) {
	if off < c.trailer {
		c.reads.Add(1)
	}
	return c.memPack.ReadAt(b, off)
}

// newCountingPack holds the pack bytes data in memory, counting into reads.
func newCountingPack(data []byte, reads *atomic.Int64) countingPack {
	count := int64(binary.LittleEndian.Uint64(data[len(data)-8:]))
	return countingPack{memPack{bytes.NewReader(data)}, int64(len(data)) - 8 - 8*count, reads}
}

// blocks is ⌈n/blockLen⌉.
func blocks(n int) int { return (n + blockLen - 1) / blockLen }

// TestPackBlockReads: reading all n addressed records the way a Run's
// jobs deal them, n two blocks and a short one, issues one record read per
// block, and every record read so is its index's hit.
func TestPackBlockReads(t *testing.T) {
	sp := tinySpec().fill()
	const n = 2*blockLen + 8
	specs := make([]*scenario.Spec, n)
	keys := make([]entryKey, n)
	recs := make([][]byte, n)
	for i := range specs {
		specs[i] = sp.SampleSpec(i)
		keys[i] = mustEntryKey(t, specs[i])
		recs[i] = rec(keys[i], &scenario.RunReport{Name: specs[i].Name, Seed: specs[i].Seed, Processed: uint64(i)})
	}
	path := filepath.Join(t.TempDir(), "x.pack")
	commitPack(t, path, recs...)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var reads atomic.Int64
	p := readPack(newCountingPack(data, &reads), int64(len(data)), n)
	defer p.close()
	if reads.Load() != 0 || p.addressed() != n {
		t.Fatalf("opening the pack: %d record reads, %d records addressed; want 0 and %d", reads.Load(), p.addressed(), n)
	}
	sps := newSpans(p.addressed())
	if got := sps.jobs(n); got != blocks(n) {
		t.Errorf("%d records make %d jobs, want %d", n, got, blocks(n))
	}
	seen := 0
	for j := 0; j < sps.jobs(n); j++ {
		lo, hi, inBlock := sps.span(j)
		if !inBlock || lo != seen {
			t.Fatalf("job %d spans [%d, %d) block %v after %d records", j, lo, hi, inBlock, seen)
		}
		var buf []byte
		blk, ok := p.readBlock(lo, hi, &buf)
		if !ok {
			t.Fatalf("block [%d, %d) did not read", lo, hi)
		}
		for i := lo; i < hi; i++ {
			if !hit(p.record(blk, lo, i), keys[i], specs[i], new(scenario.RunReport)) {
				t.Errorf("record %d of block [%d, %d) missed", i, lo, hi)
			}
		}
		seen = hi
	}
	if seen != n || reads.Load() != int64(blocks(n)) {
		t.Errorf("%d records read in %d record reads, want %d in %d", seen, reads.Load(), n, blocks(n))
	}
}

// countRun runs sp with openFile reading the pack from memory and stream
// counting the jobs, and returns the result, the reads made of the old
// pack's records and the runner jobs.
func countRun(t *testing.T, sp *Spec, opts Options) (*Result, int64, int) {
	t.Helper()
	var reads atomic.Int64
	jobs := 0
	openFile = func(path string) (packFile, int64, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, 0, err
		}
		return newCountingPack(data, &reads), int64(len(data)), nil
	}
	stream = func(ctx context.Context, p *runner.Pool, n int, fn func(int) unit, emit func(int, unit)) error {
		jobs = n
		return runner.Stream(ctx, p, n, fn, emit)
	}
	defer func() { openFile, stream = osOpenFile, runner.Stream[unit] }()
	res, err := Run(context.Background(), sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res, reads.Load(), jobs
}

// osOpenFile is openFile as the package sets it.
var osOpenFile = openFile

// TestRunWarmReadsBlocks: a fully warm Run of n records, two blocks and a
// short one, makes ⌈n/blockLen⌉ record reads and hands the runner as many
// jobs. A longer Run deals the same blocks and runs each index past them
// as a job of its own.
func TestRunWarmReadsBlocks(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates scenarios; skipped in -short")
	}
	sp := tinySpec()
	sp.N = 2*blockLen + 8
	sp.DurationSec = Uniform(1.2, 1.8)
	sp.CacheDir = t.TempDir()
	opts := Options{Workers: 3, Version: "test"}
	cold, err := Run(context.Background(), sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	warm, reads, jobs := countRun(t, sp, opts)
	if warm.CacheHits != sp.N || warm.Digest() != cold.Digest() {
		t.Fatalf("warm run: %d of %d hits, digest equal %v", warm.CacheHits, sp.N, warm.Digest() == cold.Digest())
	}
	if want := blocks(sp.N); reads != int64(want) || jobs != want {
		t.Errorf("warm run of %d records: %d record reads and %d jobs, want %d of each", sp.N, reads, jobs, want)
	}
	longer := *sp
	longer.N = sp.N + 5
	// Its reads are not counted: the pack it writes copies the old records.
	res, _, jobs := countRun(t, &longer, opts)
	if res.CacheHits != sp.N || res.Simulated != 5 || jobs != blocks(sp.N)+5 {
		t.Errorf("longer run: %d hits / %d simulated in %d jobs, want %d / 5 in %d",
			res.CacheHits, res.Simulated, jobs, sp.N, blocks(sp.N)+5)
	}
}

// damage flips the first byte of the key of each of the pack's records at
// idx, so that record misses.
func damage(t *testing.T, path string, idx ...int) {
	t.Helper()
	recs := packRecords(t, path)
	for _, i := range idx {
		recs[i] = bytes.Clone(recs[i])
		recs[i][0] ^= 0xff
	}
	commitPack(t, path, recs...)
}

// TestRunPanicMidBlock: a scenario that panics while its job simulates
// its damaged record in the middle of a block reaches the caller as a
// *runner.PanicError naming the scenario's index, not the job's. The pack
// the Run commits keeps the k records before it, one of them re-simulated,
// and leaves record k as it was.
func TestRunPanicMidBlock(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates scenarios; skipped in -short")
	}
	const k = 5
	sp := tinySpec()
	sp.N = blockLen + 8
	sp.DurationSec = Uniform(1.2, 1.8)
	sp.CacheDir = t.TempDir()
	opts := Options{Workers: 2, Version: "test"}
	if _, err := Run(context.Background(), sp, opts); err != nil {
		t.Fatal(err)
	}
	path := onlyPack(t, sp.CacheDir)
	want := packRecords(t, path)
	damage(t, path, 1, k)
	damaged := packRecords(t, path)
	name := sp.fill().SampleSpec(k).Name
	t.Cleanup(func() { simulate = scenario.Run })
	simulate = func(ctx context.Context, spec *scenario.Spec) (*scenario.RunReport, error) {
		if spec.Name == name {
			panic("injected panic")
		}
		return scenario.Run(ctx, spec)
	}
	_, err := Run(context.Background(), sp, opts)
	var pe *runner.PanicError
	if !errors.As(err, &pe) || !errors.Is(err, runner.ErrJobPanic) {
		t.Fatalf("err = %v, want a *runner.PanicError", err)
	}
	if pe.Job != k || pe.Value != "injected panic" {
		t.Errorf("panic names job %d with %v, want scenario %d's injected panic", pe.Job, pe.Value, k)
	}
	got := packRecords(t, path)
	if len(got) != sp.N {
		t.Fatalf("the pack holds %d records, want %d", len(got), sp.N)
	}
	for i := range got {
		w := want[i]
		if i >= k {
			w = damaged[i]
		}
		if !bytes.Equal(got[i], w) {
			t.Errorf("record %d changed by the run that panicked at %d", i, k)
		}
	}
}

// TestRunCancelMidBlock: a Run cancelled while a block's job simulates
// one of its records returns the outcomes it has up to that record; the
// fold sees a gap there and delivers nothing past it, though the later
// blocks ran whole (the cancel waits for them). The committed pack
// resumes fully warm.
func TestRunCancelMidBlock(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates scenarios; skipped in -short")
	}
	const k = 10
	sp := tinySpec()
	sp.N = 2*blockLen + 8
	sp.DurationSec = Uniform(1.2, 1.8)
	sp.CacheDir = t.TempDir()
	opts := Options{Workers: 2, Version: "test"}
	cold, err := Run(context.Background(), sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	damage(t, onlyPack(t, sp.CacheDir), k)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	name := sp.fill().SampleSpec(k).Name
	var later sync.WaitGroup // the jobs of blocks 1 and 2
	later.Add(blocks(sp.N) - 1)
	t.Cleanup(func() { simulate, stream = scenario.Run, runner.Stream[unit] })
	stream = func(ctx context.Context, p *runner.Pool, n int, fn func(int) unit, emit func(int, unit)) error {
		return runner.Stream(ctx, p, n, func(j int) unit {
			u := fn(j)
			if j > 0 {
				later.Done()
			}
			return u
		}, emit)
	}
	simulate = func(ctx context.Context, spec *scenario.Spec) (*scenario.RunReport, error) {
		rep, err := scenario.Run(ctx, spec)
		if spec.Name == name {
			later.Wait()
			cancel()
		}
		return rep, err
	}
	var done int
	cut := opts
	cut.Progress = func(d, _ int) { done = d }
	if _, err := Run(ctx, sp, cut); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if done != k+1 {
		t.Errorf("%d scenarios delivered around a cancel inside scenario %d, want %d", done, k, k+1)
	}
	simulate, stream = scenario.Run, runner.Stream[unit]
	res, err := Run(context.Background(), sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits != sp.N || res.Digest() != cold.Digest() {
		t.Errorf("after the cancelled run: %d of %d hits, digest equal %v", res.CacheHits, sp.N, res.Digest() == cold.Digest())
	}
}

// TestPackMode: a pack is created as any file the user creates, 0666 less
// the umask, and not private to its writer, so a cache directory several
// users share serves each of them.
func TestPackMode(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.pack")
	commitPack(t, path, rec(mustEntryKey(t, &scenario.Spec{Name: "x"}), &scenario.RunReport{Name: "x"}))
	plain := filepath.Join(dir, "plain")
	if err := os.WriteFile(plain, nil, 0o666); err != nil {
		t.Fatal(err)
	}
	pst, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(plain)
	if err != nil {
		t.Fatal(err)
	}
	if pst.Mode() != st.Mode() {
		t.Errorf("pack mode %v, want %v as a file written with 0666", pst.Mode(), st.Mode())
	}
}

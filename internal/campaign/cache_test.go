package campaign

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"mptcpsim/internal/scenario"
)

func mustKey(t *testing.T, sp *scenario.Spec) string {
	t.Helper()
	key, err := CacheKey("v", sp)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// mustEntryKey is mustKey before it becomes hex, as a record holds it.
func mustEntryKey(t testing.TB, sp *scenario.Spec) entryKey {
	t.Helper()
	key, err := cacheKey(new([]byte), "v", sp)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// getFresh reads record i of p as a block of one, as a Run's job reads
// it, and decodes it into a new report if it is the run of sp.
func getFresh(p *pack, i int, key entryKey, sp *scenario.Spec) (*scenario.RunReport, bool) {
	bp := entryPool.Get().(*[]byte)
	defer entryPool.Put(bp)
	data, ok := p.readBlock(i, i+1, bp)
	if !ok {
		return nil, false
	}
	rep := new(scenario.RunReport)
	return rep, hit(p.record(data, i, i), key, sp, rep)
}

// rec is rep's pack record under key: the key, the schema line, then the
// report.
func rec(key entryKey, rep *scenario.RunReport) []byte {
	return scenario.AppendReport(append(key[:], reportHeader...), rep)
}

// commitPack writes a pack holding recs as records 0, 1, … at path, the
// way a Run that simulated every one of them commits it.
func commitPack(t testing.TB, path string, recs ...[]byte) {
	t.Helper()
	c := &cache{path: path}
	for i, r := range recs {
		b := append([]byte(nil), r...)
		o := outcome{entry: &b}
		if err := c.keep(i, &o); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.commit(); err != nil {
		t.Fatal(err)
	}
}

// packRecords splits the pack at path into its records by its trailer,
// without pack's own reader.
func packRecords(t *testing.T, path string) [][]byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	word := func(at int) int { return int(binary.LittleEndian.Uint64(data[at:])) }
	n := word(len(data) - 8)
	end := len(data) - 8 - 8*n
	recs := make([][]byte, n)
	for i := range recs {
		hi := end
		if i+1 < n {
			hi = word(end + 8*(i+1))
		}
		recs[i] = data[word(end+8*i):hi]
	}
	return recs
}

// onlyPack returns the one file in dir, which must be a pack.
func onlyPack(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || !strings.HasSuffix(entries[0].Name(), ".pack") {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("cache directory holds %q, want one pack", names)
	}
	return filepath.Join(dir, entries[0].Name())
}

// paddedReport is a report with the given number of flows whose record
// under key is exactly size bytes, padded out by a long violation.
func paddedReport(t *testing.T, key entryKey, flows, size int) *scenario.RunReport {
	t.Helper()
	rep := &scenario.RunReport{Name: "big", Seed: 9, Processed: 1 << 40, Violations: []string{""}}
	for i := 0; i < flows; i++ {
		rep.Flows = append(rep.Flows, scenario.FlowReport{
			Name: "user-" + strconv.Itoa(i), Algorithm: "olia",
			GoodputMbps: float64(i) / 3, PathMbps: []float64{1, float64(i)}, GoodputBytes: int64(i) << 20,
		})
	}
	base := len(rec(key, rep))
	for pad := max(0, size-base-3); pad <= size-base; pad++ {
		rep.Violations[0] = strings.Repeat("queue over its cap ", pad/19+1)[:pad]
		if len(rec(key, rep)) == size {
			return rep
		}
	}
	t.Fatalf("no padding makes a %d-flow record %d bytes long", flows, size)
	return nil
}

// TestCacheEntryLargerThanBuffer: a record the starting read buffer cannot
// hold still hits, whole. Records of the buffer's size and one byte either
// side of it, and a 200-flow one several times its size, are each read
// from a pack as a block of one and decoded, and by readBlock from a
// buffer of the starting size and from one of a single byte, which has to
// grow.
func TestCacheEntryLargerThanBuffer(t *testing.T) {
	start := len(*entryPool.New().(*[]byte))
	path := filepath.Join(t.TempDir(), "big.pack")
	spec := &scenario.Spec{Name: "big", Seed: 9}
	key := mustEntryKey(t, spec)
	for _, rep := range []*scenario.RunReport{
		paddedReport(t, key, 0, start-1),
		paddedReport(t, key, 0, start),
		paddedReport(t, key, 0, start+1),
		paddedReport(t, key, 200, 5*start),
	} {
		enc := rec(key, rep)
		commitPack(t, path, enc)
		p := openPack(path, 1)
		if got, ok := getFresh(&p, 0, key, spec); !ok || !reflect.DeepEqual(got, rep) {
			t.Errorf("%d-byte record: hit %v, report equal %v", len(enc), ok, reflect.DeepEqual(got, rep))
		}
		for _, n := range []int{start, 1} {
			buf := make([]byte, n)
			if data, ok := p.readBlock(0, 1, &buf); !ok || !bytes.Equal(data, enc) {
				t.Errorf("%d-byte record from a %d-byte buffer: ok %v, read %d bytes", len(enc), n, ok, len(data))
			}
		}
		p.close()
	}
}

// TestCacheGetOwnsReport: a job hands its block's read buffer back to the
// pool before it ends, so a report decoded from it must own every byte it
// holds. The buffer is taken back out and scribbled on; the report must
// not change.
func TestCacheGetOwnsReport(t *testing.T) {
	rep := &scenario.RunReport{Name: "owned", Seed: 3, Processed: 42,
		Flows: []scenario.FlowReport{{Name: "user-0", Algorithm: "olia", PathMbps: []float64{1.5},
			Stream: &scenario.StreamReport{Scheduler: "minrtt"}}},
		Queues:     []scenario.QueueReport{{Link: 1}},
		Violations: []string{"link 0: queue 12 exceeds cap 10", "flow user-0: cwnd 0 < 1"}}
	spec := &scenario.Spec{Name: rep.Name, Seed: rep.Seed}
	key := mustEntryKey(t, spec)
	enc := rec(key, rep)
	path := filepath.Join(t.TempDir(), "owned.pack")
	commitPack(t, path, enc)
	p := openPack(path, 1)
	defer p.close()
	// The race detector makes the pool drop a Put at random; retry until
	// the buffer the record was read into is the one taken back.
	for try := 0; try < 100; try++ {
		got, ok := getFresh(&p, 0, key, spec)
		if !ok {
			t.Fatal("miss after commit")
		}
		bp := entryPool.Get().(*[]byte)
		if !bytes.HasPrefix(*bp, enc) {
			continue
		}
		for i := range *bp {
			(*bp)[i] = 0xa5
		}
		entryPool.Put(bp)
		if !reflect.DeepEqual(got, rep) {
			t.Fatalf("scribbling on the read buffer changed the report:\n got %+v\nwant %+v", got, rep)
		}
		return
	}
	t.Fatal("the pool never returned the read buffer")
}

// TestRunRewritesTruncatedEntry: the pack cut short at every byte offset —
// what a torn copy would leave — gives a miss, never a wrong hit; the run
// is simulated again and the whole pack rewritten.
func TestRunRewritesTruncatedEntry(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates scenarios; skipped in -short")
	}
	sp := tinySpec()
	sp.N = 1
	sp.DurationSec = Const(1.2)
	sp.CacheDir = t.TempDir()
	opts := Options{Workers: 1, Version: "test"}
	cold, err := Run(context.Background(), sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	path := onlyPack(t, sp.CacheDir)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(whole); cut++ {
		if err := os.WriteFile(path, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), sp, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Simulated != 1 || res.Digest() != cold.Digest() {
			t.Fatalf("pack cut to %d of %d bytes: simulated %d, digest equal %v", cut, len(whole), res.Simulated, res.Digest() == cold.Digest())
		}
		if got, err := os.ReadFile(onlyPack(t, sp.CacheDir)); err != nil || !bytes.Equal(got, whole) {
			t.Fatalf("pack cut to %d bytes was not rewritten whole: %d bytes, %v", cut, len(got), err)
		}
	}
}

// TestRunShorterKeepsPack: a shorter run of a campaign reads the longer
// run's pack and leaves it intact — untouched when every record hits, and
// byte for byte as it was when it rewrites a damaged record — so the
// longer run stays fully warm. The damaged record sits in the middle of
// the short run's one block: its job simulates it, and its neighbours
// hit.
func TestRunShorterKeepsPack(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates scenarios; skipped in -short")
	}
	sp := tinySpec()
	sp.N = 8
	sp.DurationSec = Uniform(1.2, 1.8)
	sp.CacheDir = t.TempDir()
	opts := Options{Workers: 2, Version: "test"}
	long, err := Run(context.Background(), sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	path := onlyPack(t, sp.CacheDir)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	short := *sp
	short.N = 4
	check := func(what string, simulated int) {
		t.Helper()
		res, err := Run(context.Background(), &short, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Simulated != simulated || res.CacheHits != short.N-simulated {
			t.Errorf("%s: simulated %d / hits %d, want %d / %d", what, res.Simulated, res.CacheHits, simulated, short.N-simulated)
		}
		if got, err := os.ReadFile(onlyPack(t, sp.CacheDir)); err != nil || !bytes.Equal(got, whole) {
			t.Errorf("%s: the %d-record pack changed: %d bytes, %v", what, sp.N, len(got), err)
		}
	}
	check("warm", 0)
	damage(t, path, 2)
	check("record 2 damaged", 1)
	res, err := Run(context.Background(), sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Simulated != 0 || res.Digest() != long.Digest() {
		t.Errorf("the long run after the short ones: simulated %d, digest equal %v", res.Simulated, res.Digest() == long.Digest())
	}
}

// TestRunCancelledResumes: a cancelled Run commits the prefix it
// delivered, and the next Run hits on exactly that prefix, simulates the
// rest and reaches the uncached digest.
func TestRunCancelledResumes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates scenarios; skipped in -short")
	}
	sp := tinySpec()
	sp.N = 40
	sp.DurationSec = Uniform(1.2, 1.8)
	opts := Options{Workers: 2, Version: "test"}
	ref, err := Run(context.Background(), sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	sp.CacheDir = t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var done int
	cut := opts
	cut.Progress = func(d, _ int) {
		if done = d; d == 5 {
			cancel()
		}
	}
	if _, err := Run(ctx, sp, cut); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if done < 5 || done >= sp.N {
		t.Fatalf("%d of %d scenarios delivered around a cancel after 5", done, sp.N)
	}
	if got := len(packRecords(t, onlyPack(t, sp.CacheDir))); got != done {
		t.Errorf("the cancelled run committed %d records, delivered %d", got, done)
	}
	res, err := Run(context.Background(), sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits != done || res.Simulated != sp.N-done || res.Digest() != ref.Digest() {
		t.Errorf("resumed run: hits %d / simulated %d, want %d / %d; digest equal %v",
			res.CacheHits, res.Simulated, done, sp.N-done, res.Digest() == ref.Digest())
	}
}

// TestRunConcurrentCommits: two Runs of one campaign on one directory at
// once (run under -race) both reach the uncached digest, and leave one
// pack, no temp file, and a cache the next Run hits on throughout.
func TestRunConcurrentCommits(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates scenarios; skipped in -short")
	}
	sp := tinySpec()
	sp.DurationSec = Uniform(1.2, 1.8)
	opts := Options{Workers: 2, Version: "test"}
	ref, err := Run(context.Background(), sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	sp.CacheDir = t.TempDir()
	var wg sync.WaitGroup
	var res [2]*Result
	var errs [2]error
	for k := range res {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[k], errs[k] = Run(context.Background(), sp, opts)
		}()
	}
	wg.Wait()
	for k := range res {
		if errs[k] != nil {
			t.Fatalf("run %d: %v", k, errs[k])
		}
		if res[k].Digest() != ref.Digest() {
			t.Errorf("run %d: digest %s, want the uncached %s", k, res[k].Digest(), ref.Digest())
		}
	}
	onlyPack(t, sp.CacheDir)
	warm, err := Run(context.Background(), sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheHits != sp.N {
		t.Errorf("after two concurrent runs: %d of %d hits", warm.CacheHits, sp.N)
	}
}

// memPack is a pack held in memory, so the fuzzer reads its inputs
// without rewriting a file for each.
type memPack struct{ *bytes.Reader }

func (memPack) Close() error { return nil }

// FuzzCachePack: whatever bytes sit where a pack goes, reading every
// addressed record in blocks of a span the fuzzer chooses (a block of one
// included) never panics, sizes nothing from a count or an offset the
// file's length does not admit, and each record read is a miss or one that
// passes every check: its bytes are the record the decoded report
// re-encodes to under the index's key, and that report is the index's run.
func FuzzCachePack(f *testing.F) {
	sp := tinySpec().fill()
	const n = 10 // two more than the real pack holds
	specs := make([]*scenario.Spec, n)
	keys := make([]entryKey, n)
	for i := range specs {
		specs[i] = sp.SampleSpec(i)
		keys[i] = mustEntryKey(f, specs[i])
	}
	dir := f.TempDir()
	var recs [][]byte
	for i := 0; i < 8; i++ {
		recs = append(recs, rec(keys[i], &scenario.RunReport{Name: specs[i].Name, Seed: specs[i].Seed, Processed: uint64(i + 1),
			Flows: []scenario.FlowReport{{Name: "user-0", Algorithm: "olia", GoodputMbps: float64(i) / 7}}}))
	}
	real := filepath.Join(dir, "real.pack")
	commitPack(f, real, recs...)
	whole, err := os.ReadFile(real)
	if err != nil {
		f.Fatal(err)
	}
	end := len(whole) - 8 - 8*len(recs)
	edit := func(at int, v uint64) []byte {
		b := bytes.Clone(whole)
		binary.LittleEndian.PutUint64(b[at:], v)
		return b
	}
	swapped := bytes.Clone(whole)
	copy(swapped[end+16:], whole[end+24:end+32])
	copy(swapped[end+24:], whole[end+16:end+24])
	damaged := bytes.Clone(whole)
	damaged[int(binary.LittleEndian.Uint64(whole[end+8*3:]))] ^= 0xff // record 3's key
	for _, seed := range [][]byte{
		{},
		whole[:len(whole)-3],                    // a cut trailer
		edit(end+8*3, uint64(len(whole)+100)),   // an offset past EOF
		swapped,                                 // offsets out of order
		edit(len(whole)-8, 1<<63-1),             // a count near 2⁶³
		edit(len(whole)-8, uint64(len(recs)+1)), // a count one too many
		damaged,                                 // a record mid-block under another key
		whole,
	} {
		for _, span := range []uint8{1, 3, blockLen} {
			f.Add(seed, span)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, span uint8) {
		p := readPack(memPack{bytes.NewReader(data)}, int64(len(data)), n)
		defer p.close()
		if len(p.bounds) > 8*(min(p.count, n)+1) || p.count > len(data)/8 {
			t.Fatalf("%d bytes of bounds for %d records from a %d-byte file", len(p.bounds), p.count, len(data))
		}
		for i := 0; i < p.addressed(); i++ {
			if lo, hi := p.bound(i), p.bound(i+1); lo < 0 || hi < lo+int64(recordMin) || hi > int64(len(data)) {
				t.Fatalf("record %d at [%d, %d) of a %d-byte file", i, lo, hi, len(data))
			}
		}
		if _, ok := p.readBlock(p.addressed(), p.addressed()+1, new([]byte)); ok {
			t.Fatalf("read record %d past the %d addressed", p.addressed(), p.addressed())
		}
		b := max(int(span), 1)
		for lo := 0; lo < p.addressed(); lo += b {
			hi := min(lo+b, p.addressed())
			var buf []byte
			data, ok := p.readBlock(lo, hi, &buf)
			if !ok {
				t.Fatalf("block [%d, %d) of the addressed records did not read", lo, hi)
			}
			for i := lo; i < hi; i++ {
				got := p.record(data, lo, i)
				rep := new(scenario.RunReport)
				if !hit(got, keys[i], specs[i], rep) {
					continue
				}
				if rep.Name != specs[i].Name || rep.Seed != specs[i].Seed {
					t.Fatalf("record %d hit as %s/%d, want %s/%d", i, rep.Name, rep.Seed, specs[i].Name, specs[i].Seed)
				}
				if want := rec(keys[i], rep); !bytes.Equal(got, want) {
					t.Fatalf("record %d hit, but its %d bytes are not the %d its report re-encodes to", i, len(got), len(want))
				}
			}
		}
	})
}

// TestPackRecordLayout: a record opens with the scenario's raw content
// address, and the trailer closes the pack: one offset per record, then
// the count.
func TestPackRecordLayout(t *testing.T) {
	spec := &scenario.Spec{Name: "x", Seed: 3}
	a := rec(mustEntryKey(t, spec), &scenario.RunReport{Name: "x", Seed: 3})
	if got := hex.EncodeToString(a[:sha256.Size]); got != mustKey(t, spec) {
		t.Errorf("record opens with %s, want the key %s", got, mustKey(t, spec))
	}
	path := filepath.Join(t.TempDir(), "x.pack")
	commitPack(t, path, a, a)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := append(bytes.Clone(a), a...)
	for _, v := range []uint64{0, uint64(len(a)), 2} {
		want = binary.LittleEndian.AppendUint64(want, v)
	}
	if !bytes.Equal(data, want) {
		t.Errorf("pack of two %d-byte records:\n got %x\nwant %x", len(a), data, want)
	}
}

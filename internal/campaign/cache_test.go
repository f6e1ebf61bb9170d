package campaign

import (
	"bytes"
	"context"
	"os"
	"reflect"
	"strconv"
	"strings"
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

// mustEntryKey is mustKey before it becomes a string, as the cache takes it.
func mustEntryKey(t *testing.T, sp *scenario.Spec) entryKey {
	t.Helper()
	key, err := cacheKey("v", sp)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// getFresh is c.get into a new report.
func getFresh(c *cache, key entryKey, sp *scenario.Spec) (*scenario.RunReport, bool) {
	rep := new(scenario.RunReport)
	ok := c.get(key, sp, rep)
	return rep, ok
}

// entry is rep's cache entry: the schema line, then the report.
func entry(rep *scenario.RunReport) []byte {
	return scenario.AppendReport([]byte(reportHeader), rep)
}

// paddedReport is a report with the given number of flows whose entry is
// exactly size bytes, padded out by a long violation.
func paddedReport(t *testing.T, flows, size int) *scenario.RunReport {
	t.Helper()
	rep := &scenario.RunReport{Name: "big", Seed: 9, Processed: 1 << 40, Violations: []string{""}}
	for i := 0; i < flows; i++ {
		rep.Flows = append(rep.Flows, scenario.FlowReport{
			Name: "user-" + strconv.Itoa(i), Algorithm: "olia",
			GoodputMbps: float64(i) / 3, PathMbps: []float64{1, float64(i)}, GoodputBytes: int64(i) << 20,
		})
	}
	base := len(entry(rep))
	for pad := max(0, size-base-3); pad <= size-base; pad++ {
		rep.Violations[0] = strings.Repeat("queue over its cap ", pad/19+1)[:pad]
		if len(entry(rep)) == size {
			return rep
		}
	}
	t.Fatalf("no padding makes a %d-flow entry %d bytes long", flows, size)
	return nil
}

// TestCacheEntryLargerThanBuffer: an entry the starting read buffer cannot
// hold still hits, whole. Entries of the buffer's size and one byte either
// side of it, and a 200-flow one several times its size, are each read by
// get, and by readEntry from a buffer of the starting size and from one of
// a single byte, which has to grow at every read.
func TestCacheEntryLargerThanBuffer(t *testing.T) {
	start := len(*entryPool.New().(*[]byte))
	c, err := openCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := &scenario.Spec{Name: "big", Seed: 9}
	key := mustEntryKey(t, spec)
	for _, rep := range []*scenario.RunReport{
		paddedReport(t, 0, start-1),
		paddedReport(t, 0, start),
		paddedReport(t, 0, start+1),
		paddedReport(t, 200, 5*start),
	} {
		if err := c.put(key, rep); err != nil {
			t.Fatal(err)
		}
		enc := entry(rep)
		if got, ok := getFresh(c, key, spec); !ok || !reflect.DeepEqual(got, rep) {
			t.Errorf("%d-byte entry: hit %v, report equal %v", len(enc), ok, reflect.DeepEqual(got, rep))
		}
		for _, n := range []int{start, 1} {
			buf := make([]byte, n)
			if data, ok := readEntry(c.path(key), &buf); !ok || !bytes.Equal(data, enc) {
				t.Errorf("%d-byte entry from a %d-byte buffer: ok %v, read %d bytes", len(enc), n, ok, len(data))
			}
		}
	}
}

// TestCacheGetOwnsReport: get hands its read buffer back to the pool
// before it returns, so the report must own every byte it holds. The
// buffer is taken back out and scribbled on; the report must not change.
func TestCacheGetOwnsReport(t *testing.T) {
	c, err := openCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rep := &scenario.RunReport{Name: "owned", Seed: 3, Processed: 42,
		Flows: []scenario.FlowReport{{Name: "user-0", Algorithm: "olia", PathMbps: []float64{1.5},
			Stream: &scenario.StreamReport{Scheduler: "minrtt"}}},
		Queues:     []scenario.QueueReport{{Link: 1}},
		Violations: []string{"link 0: queue 12 exceeds cap 10", "flow user-0: cwnd 0 < 1"}}
	spec := &scenario.Spec{Name: rep.Name, Seed: rep.Seed}
	key := mustEntryKey(t, spec)
	if err := c.put(key, rep); err != nil {
		t.Fatal(err)
	}
	enc := entry(rep)
	// The race detector makes the pool drop a Put at random; retry until
	// the buffer get read into is the one taken back.
	for try := 0; try < 100; try++ {
		got, ok := getFresh(c, key, spec)
		if !ok {
			t.Fatal("miss after put")
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
	t.Fatal("the pool never returned get's buffer")
}

// TestRunRewritesTruncatedEntry: the entry cut short at every byte offset —
// what a short read would leave — is a miss; the run is simulated again and
// the whole entry rewritten.
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
	files := entryFiles(t, sp.CacheDir, ".bin")
	if len(files) != 1 {
		t.Fatalf("%d entries after a one-scenario run", len(files))
	}
	whole, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(whole); cut++ {
		if err := os.WriteFile(files[0], whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), sp, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Simulated != 1 || res.Digest() != cold.Digest() {
			t.Fatalf("entry cut to %d of %d bytes: simulated %d, digest equal %v", cut, len(whole), res.Simulated, res.Digest() == cold.Digest())
		}
		if got, err := os.ReadFile(files[0]); err != nil || !bytes.Equal(got, whole) {
			t.Fatalf("entry cut to %d bytes was not rewritten whole: %d bytes, %v", cut, len(got), err)
		}
	}
}

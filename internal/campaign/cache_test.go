package campaign

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
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

// TestCacheKeyCoversEverySpecField is what keeps appendSpec in step with
// the scenario types: every field of Spec, LinkSpec, PathSpec, FlowSpec,
// TimelineEvent, LinkSetpoint and PathFlap is given its own value, then
// changed one at a time — a leaf altered, a pointer cleared, a slice
// shortened — and each change must change the key. A field appendSpec
// does not encode would let two different runs share one entry.
func TestCacheKeyCoversEverySpecField(t *testing.T) {
	var sp scenario.Spec
	n := 0
	fillDistinct(t, reflect.ValueOf(&sp).Elem(), &n)
	base := mustKey(t, &sp)
	changes := 0
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		old := reflect.New(v.Type()).Elem()
		old.Set(v)
		switch v.Kind() {
		case reflect.String:
			v.SetString(v.String() + "'")
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Float64:
			v.SetFloat(v.Float() + 1)
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Pointer:
			v.Set(reflect.Zero(v.Type()))
		case reflect.Slice:
			v.Set(v.Slice(0, v.Len()-1))
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
			return
		default:
			t.Fatalf("%s: spec field of kind %s: teach appendSpec and this test about it", path, v.Kind())
		}
		changes++
		if mustKey(t, &sp) == base {
			t.Errorf("changing %s did not change the key", path)
		}
		v.Set(old)
		switch v.Kind() {
		case reflect.Pointer:
			walk(v.Elem(), path)
		case reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), path+"["+strconv.Itoa(i)+"]")
			}
		}
	}
	walk(reflect.ValueOf(&sp).Elem(), "Spec")
	if mustKey(t, &sp) != base {
		t.Fatal("the walk did not restore the spec")
	}
	if changes < 50 {
		t.Errorf("%d changes tried, want every field of every spec type", changes)
	}
}

// FuzzCacheKey: two specs decoded from JSON get one key exactly when they
// encode to the same JSON, so the binary key shares and splits entries
// just as the JSON-keyed schema before it did.
func FuzzCacheKey(f *testing.F) {
	for _, sp := range []*scenario.Spec{
		scenario.PaperScenarioA(2, 2, 2, 1, "olia", 1, 1, 2),
		scenario.PaperScenarioB(2, 4, 4, "lia", true, 2, 1, 2),
		scenario.PaperScenarioC(2, 2, 2, 1, "olia", 3, 1, 2),
		scenario.PaperTwoLink(2, 1, 1, "olia", 4, 1, 2),
		tinySpec().fill().SampleSpec(3),
		Default().fill().SampleSpec(5),
	} {
		data, err := json.Marshal(sp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, data)
		f.Add(data, bytes.Replace(data, []byte(`"seed":`), []byte(`"seed": `), 1))
	}
	for _, pair := range [][2]string{
		{`{"links":[{"rate_mbps":1,"delay_ms":-0}]}`, `{"links":[{"rate_mbps":1}]}`},
		{`{"warmup_sec":-0}`, `{"warmup_sec":0}`},
		{`{"links":[]}`, `{"links":null}`},
		{`{"paths":[{"links":[]}]}`, `{"paths":[{}]}`},
		{`{"timeline":[]}`, `{}`},
		{`{"timeline":[{"at_sec":1,"link":{"link":0,"loss_pct":0}}]}`, `{"timeline":[{"at_sec":1,"link":{"link":0}}]}`},
		{`{"flows":[{"name":"a","paths":[0]}]}`, `{"flows":[{"paths":[0],"name":"a"}]}`},
		{`{"name":"\u00e9"}`, `{"name":"é"}`},
	} {
		f.Add([]byte(pair[0]), []byte(pair[1]))
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		var sa, sb scenario.Spec
		if json.Unmarshal(a, &sa) != nil || json.Unmarshal(b, &sb) != nil {
			return
		}
		ja, err := json.Marshal(&sa)
		if err != nil {
			t.Fatal(err)
		}
		jb, err := json.Marshal(&sb)
		if err != nil {
			t.Fatal(err)
		}
		if sameKey, sameJSON := mustKey(t, &sa) == mustKey(t, &sb), bytes.Equal(ja, jb); sameKey != sameJSON {
			t.Fatalf("same key %v, same JSON %v:\n%s\n%s", sameKey, sameJSON, ja, jb)
		}
	})
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
	base := len(appendReport(nil, rep))
	for pad := max(0, size-base-3); pad <= size-base; pad++ {
		rep.Violations[0] = strings.Repeat("queue over its cap ", pad/19+1)[:pad]
		if len(appendReport(nil, rep)) == size {
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
		enc := appendReport(nil, rep)
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
	rep := realReports(t)[2]
	spec := &scenario.Spec{Name: rep.Name, Seed: rep.Seed}
	key := mustEntryKey(t, spec)
	if err := c.put(key, rep); err != nil {
		t.Fatal(err)
	}
	entry := appendReport(nil, rep)
	// The race detector makes the pool drop a Put at random; retry until
	// the buffer get read into is the one taken back.
	for try := 0; try < 100; try++ {
		got, ok := getFresh(c, key, spec)
		if !ok {
			t.Fatal("miss after put")
		}
		bp := entryPool.Get().(*[]byte)
		if !bytes.HasPrefix(*bp, entry) {
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

// TestRunIgnoresV2Tree: a directory filled under the v2 schema (binary
// entries at <key>.bin, keys hashed from the spec's JSON under the v2 tag)
// yields no hits and is left byte for byte as it was.
func TestRunIgnoresV2Tree(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates scenarios; skipped in -short")
	}
	const v2 = "mptcpsim-campaign-cache-v2"
	sp := tinySpec()
	sp.N = 4
	sp.CacheDir = t.TempDir()
	filled := sp.fill()
	old := map[string][]byte{}
	for i := 0; i < sp.N; i++ {
		spec := filled.SampleSpec(i)
		data, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(append([]byte(v2+"\x00test\x00"), data...))
		key := hex.EncodeToString(sum[:])
		body := appendReport(nil, &scenario.RunReport{Name: spec.Name, Seed: spec.Seed, Processed: 1})
		entry := append([]byte(v2+"\n"), body[len(reportHeader):]...)
		path := filepath.Join(sp.CacheDir, key[:2], key+".bin")
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
		t.Errorf("simulated %d / hits %d over a v2 tree, want %d / 0", res.Simulated, res.CacheHits, sp.N)
	}
	if got := entryFiles(t, sp.CacheDir, ".bin"); len(got) != 2*sp.N {
		t.Errorf("%d entries after the run, want the %d v2 ones and %d new", len(got), sp.N, sp.N)
	}
	for path, want := range old {
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Errorf("v2 entry %s changed: %q, %v", path, got, err)
		}
	}
}

package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mptcpsim"
)

// newTestServer mounts a service over httptest with a tiny worker budget.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	s := NewServer(context.Background(), cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// tinyBody is a fast submission: it overlays the default population, so
// only the overridden fields appear.
const tinyBody = `{"name":"t","n":4,"warmup_sec":{"kind":"const","value":1},"duration_sec":{"kind":"uniform","min":1.2,"max":1.8},"link_rate_mbps":{"kind":"loguniform","min":1,"max":4}}`

// submit POSTs a campaign and returns its id.
func submit(t *testing.T, ts *httptest.Server, body string) Status {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.State != stateRunning {
		t.Fatalf("submit: initial status %+v", st)
	}
	return st
}

// getJSON decodes one GET response into v, returning the status code.
func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("%s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// waitTerminal polls the job until it leaves state "running".
func waitTerminal(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var st Status
		if code := getJSON(t, ts.URL+"/v1/campaigns/"+id, &st); code != http.StatusOK {
			t.Fatalf("status: code %d", code)
		}
		if st.State != stateRunning {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("job never reached a terminal state")
	return Status{}
}

func TestServeLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short")
	}
	_, ts := newTestServer(t, Config{CacheDir: t.TempDir()})

	if code := getJSON(t, ts.URL+"/v1/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	var ver map[string]string
	if code := getJSON(t, ts.URL+"/v1/version", &ver); code != http.StatusOK {
		t.Fatalf("version: %d", code)
	}
	if ver["version"] != mptcpsim.Version() {
		t.Fatalf("version %q, want %q", ver["version"], mptcpsim.Version())
	}

	st := submit(t, ts, tinyBody)
	final := waitTerminal(t, ts, st.ID)
	if final.State != stateDone || final.Done != 4 || final.Total != 4 || final.Digest == "" {
		t.Fatalf("final status %+v", final)
	}

	var res mptcpsim.CampaignResult
	if code := getJSON(t, ts.URL+"/v1/campaigns/"+st.ID+"/result", &res); code != http.StatusOK {
		t.Fatalf("result: code %d", code)
	}
	if res.N != 4 || res.Simulated+res.CacheHits != 4 || res.Digest() != final.Digest {
		t.Fatalf("result %+v", res)
	}
	if res.Version != mptcpsim.Version() {
		t.Fatalf("result version %q", res.Version)
	}

	// A resubmission of the same campaign is answered from the shared cache.
	st2 := submit(t, ts, tinyBody)
	if waitTerminal(t, ts, st2.ID).State != stateDone {
		t.Fatal("resubmission failed")
	}
	var res2 mptcpsim.CampaignResult
	getJSON(t, ts.URL+"/v1/campaigns/"+st2.ID+"/result", &res2)
	if res2.CacheHits != 4 || res2.Simulated != 0 {
		t.Fatalf("resubmission: simulated %d / hits %d, want 0 / 4", res2.Simulated, res2.CacheHits)
	}
	if res2.Digest() != res.Digest() {
		t.Fatal("cached re-run digest differs")
	}

	var list []Status
	if code := getJSON(t, ts.URL+"/v1/campaigns", &list); code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	if len(list) != 2 || list[0].ID != st.ID || list[1].ID != st2.ID {
		t.Fatalf("list %+v", list)
	}
}

func TestServeEventsStream(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short")
	}
	_, ts := newTestServer(t, Config{CacheDir: t.TempDir()})
	st := submit(t, ts, tinyBody)

	resp, err := http.Get(ts.URL + "/v1/campaigns/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content type %q", ct)
	}
	var lines []Status
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev Status
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatal("no events streamed")
	}
	last := lines[len(lines)-1]
	if last.State != stateDone || last.Done != 4 {
		t.Fatalf("stream ended on %+v", last)
	}
	prev := -1
	for _, ev := range lines {
		if ev.Done < prev {
			t.Fatalf("streamed counter went backwards: %d after %d", ev.Done, prev)
		}
		prev = ev.Done
	}
}

// TestServeJobTableBounded: a long-lived server forgets its oldest finished
// jobs. Ten times the table's bound in one-scenario campaigns, each left to
// finish before the next is submitted, never leaves more than maxJobs jobs in
// the table or the listing, nor (within a measured slack) more heap in use
// than the full table held;
// forgotten ids answer 404 and the newest stay.
func TestServeJobTableBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short")
	}
	before := runtime.NumGoroutine()
	s, ts := newTestServer(t, Config{CacheDir: t.TempDir()})
	body := strings.Replace(tinyBody, `"n":4`, `"n":1`, 1)
	const total = 10 * maxJobs
	var full, grown uint64
	for i := 1; i <= total; i++ {
		st := submit(t, ts, body)
		// The events stream ends with the job's terminal state.
		resp, err := http.Get(ts.URL + "/v1/campaigns/" + st.ID + "/events")
		if err != nil {
			t.Fatal(err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		jobs, order := len(s.jobs), len(s.order)
		s.mu.Unlock()
		if want := min(i, maxJobs); jobs != want || order != want {
			t.Fatalf("after %d jobs the table holds %d (order %d), want %d", i, jobs, order, want)
		}
		switch i {
		case maxJobs:
			full = heapInUse()
		case total:
			grown = heapInUse()
		}
	}
	// Bounded in heap: once the table is full, nine times as many jobs
	// again leave the heap where it was. Measured on this test (5 runs
	// plain, 3 under -race, amd64) the heap in use grew 136-264 KiB between
	// the two points and was flat from there to 40·maxJobs; a table that
	// kept each forgotten job reachable grew 3.1 MiB.
	const slack = 1 << 20
	if grown > full+slack {
		t.Fatalf("heap in use grew from %d B after %d jobs to %d B after %d, more than the %d B slack", full, maxJobs, grown, total, slack)
	}

	var list []Status
	if code := getJSON(t, ts.URL+"/v1/campaigns", &list); code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	if len(list) != maxJobs {
		t.Fatalf("listing has %d jobs, want %d", len(list), maxJobs)
	}
	for i, st := range list {
		if want := fmt.Sprintf("c%d", total-maxJobs+1+i); st.ID != want || st.State != stateDone {
			t.Fatalf("listing[%d] = %+v, want %s done", i, st, want)
		}
	}
	for _, path := range []string{"", "/result", "/events"} {
		if code := getJSON(t, fmt.Sprintf("%s/v1/campaigns/c%d%s", ts.URL, total-maxJobs, path), nil); code != http.StatusNotFound {
			t.Fatalf("forgotten job%s: code %d, want 404", path, code)
		}
	}
	if code := getJSON(t, fmt.Sprintf("%s/v1/campaigns/c%d/result", ts.URL, total), nil); code != http.StatusOK {
		t.Fatalf("newest job's result: code %d", code)
	}

	// Bounded in goroutines too: with the server closed and the client's
	// idle connections dropped, none of the 2 560 jobs left one behind.
	ts.Close()
	s.Close()
	http.DefaultClient.CloseIdleConnections()
	waitGoroutines(t, before)
}

// heapInUse reports the bytes in in-use heap spans after forced
// collections.
func heapInUse() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// waitGoroutines polls until the goroutine count is back at the baseline,
// failing the test on a leak.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d now, %d at baseline\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeRunningJobsAreNotForgotten: making room only ever drops finished
// jobs, so with the table full of running ones it grows instead.
func TestServeRunningJobsAreNotForgotten(t *testing.T) {
	s := NewServer(context.Background(), Config{})
	defer s.Close()
	add := func(state string) {
		s.makeRoom()
		s.nextID++
		id := fmt.Sprintf("c%d", s.nextID)
		s.jobs[id] = &job{id: id, state: state}
		s.order = append(s.order, id)
	}
	add(stateDone)
	for i := 1; i < maxJobs; i++ {
		add(stateRunning)
	}
	add(stateRunning) // full: c1, the only finished job, goes
	add(stateRunning) // full of running jobs: nothing goes
	if _, ok := s.jobs["c1"]; ok || len(s.jobs) != maxJobs+1 || len(s.order) != maxJobs+1 || s.order[0] != "c2" {
		t.Fatalf("table holds %d jobs (c1 kept: %v, first %s), want %d without c1", len(s.jobs), ok, s.order[0], maxJobs+1)
	}
}

func TestServeSubmitRejects(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxN: 50})
	cases := []struct {
		name, body string
	}{
		{"malformed", `{"n":`},
		{"unknown field", `{"n":4,"cache_dir":"/etc"}`},
		{"invalid spec", `{"n":4,"algorithms":["nope"]}`},
		{"oversized", `{"n":51}`},
		{"negative n", `{"n":-1}`},
		{"trailing garbage", `{} garbage`},
		{"second value", `{}{"n":9}`},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]string
		json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, resp.StatusCode)
		}
		if body["error"] == "" {
			t.Errorf("%s: no error message in body", c.name)
		}
	}
	if code := getJSON(t, ts.URL+"/v1/campaigns/c99", nil); code != http.StatusNotFound {
		t.Errorf("unknown id status: %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/v1/campaigns/c99/result", nil); code != http.StatusNotFound {
		t.Errorf("unknown id result: %d, want 404", code)
	}
}

func TestServeCancelJob(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short")
	}
	_, ts := newTestServer(t, Config{Workers: 2})
	// A campaign big enough that it cannot finish before the DELETE lands.
	st := submit(t, ts, `{"name":"big","n":500}`)
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/campaigns/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}
	final := waitTerminal(t, ts, st.ID)
	if final.State != stateCanceled {
		t.Fatalf("state %q after cancel, want %q", final.State, stateCanceled)
	}
	// The result endpoint reports the terminal failure, not a hang.
	resp2, err := http.Get(ts.URL + "/v1/campaigns/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusGone {
		t.Fatalf("result of canceled job: status %d, want 410", resp2.StatusCode)
	}
}

func TestServeCloseDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short")
	}
	s := NewServer(context.Background(), Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	st := submit(t, ts, `{"name":"big","n":500}`)

	done := make(chan struct{})
	go func() {
		s.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("Close did not drain the running job")
	}
	// After Close the job is terminal and new submissions are refused.
	j := s.jobs[st.ID]
	j.mu.Lock()
	state := j.state
	j.mu.Unlock()
	if state == stateRunning {
		t.Fatalf("job still running after Close")
	}
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(tinyBody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit after Close: status %d, want 503", resp.StatusCode)
	}
}

// TestServeSubmitDuringClose hammers submissions from several goroutines
// across a Close. Shutdown is decided under the lock jobs are started
// under, so every reply is 202 or 503, no job is still running once Close
// has returned — none was started behind its back — and every submission
// after that answers 503.
func TestServeSubmitDuringClose(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short")
	}
	s := NewServer(context.Background(), Config{Workers: 2, CacheDir: t.TempDir()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := strings.Replace(tinyBody, `"n":4`, `"n":1`, 1)
	post := func() int {
		resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return 0
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	const submitters = 4
	flowing := make(chan struct{}, submitters)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 1; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				switch code := post(); code {
				case http.StatusAccepted, http.StatusServiceUnavailable:
				default:
					t.Errorf("submit across Close: status %d, want 202 or 503", code)
					return
				}
				if n == 3 {
					flowing <- struct{}{}
				}
			}
		}()
	}
	for g := 0; g < submitters; g++ {
		<-flowing
	}
	// One more submission is caught mid-body by the Close: its handler is
	// reading the request when the server shuts down, and the rest of the
	// body arrives only after Close has returned.
	pr, pw := io.Pipe()
	straddler := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", pr)
		if err != nil {
			t.Error(err)
			straddler <- 0
			return
		}
		resp.Body.Close()
		straddler <- resp.StatusCode
	}()
	if _, err := io.WriteString(pw, body[:len(body)/2]); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := io.WriteString(pw, body[len(body)/2:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if code := <-straddler; code != http.StatusServiceUnavailable {
		t.Errorf("submission completed after Close: status %d, want 503", code)
	}

	s.mu.Lock()
	for id, j := range s.jobs {
		if !j.terminal() {
			t.Errorf("job %s is running after Close returned", id)
		}
	}
	s.mu.Unlock()
	for i := 0; i < 8; i++ {
		if code := post(); code != http.StatusServiceUnavailable {
			t.Errorf("submit after Close: status %d, want 503", code)
		}
	}
	close(stop)
	wg.Wait()
}

// TestStatusJSONShape pins the wire format the CLI and CI smoke test
// depend on.
func TestStatusJSONShape(t *testing.T) {
	st := Status{ID: "c1", Name: "x", State: stateDone, Done: 3, Total: 3, Digest: "ab"}
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"id":"c1","name":"x","state":"done","done":3,"total":3,"digest":"ab"}`
	if string(data) != want {
		t.Fatalf("status JSON %s, want %s", data, want)
	}
	var buf bytes.Buffer
	fmt.Fprint(&buf, string(data))
	var back Status
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back != st {
		t.Fatalf("round trip changed status: %+v", back)
	}
}

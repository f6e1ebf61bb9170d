// Package serve exposes the campaign engine as an HTTP job service — the
// `mptcpsim serve` backend. Clients submit a campaign spec, poll its
// status, stream progress as NDJSON, fetch the final result, and cancel
// jobs; the server runs each job on its own Lab with the configured worker
// budget and shared result cache, so repeated submissions of one campaign
// are answered from cache.
//
// The job table is bounded: it holds at most maxJobs jobs, and a submission
// that would exceed that first forgets the oldest finished ones (their ids
// then answer 404). Running jobs are never forgotten.
//
// Lifecycle: every job context derives from the context given to
// NewServer, so cancelling it (or calling Close) stops every running
// campaign at its next scenario boundary. Close blocks until the workers
// drain. Per-job cancellation (DELETE) cancels just that job's context.
//
// The package deliberately sits outside the simulator's determinism
// scope: an HTTP service is free to use goroutines and wall-clock
// concurrency, because determinism lives below it — a campaign's Result
// is byte-identical no matter which server, worker count, or cache state
// produced it.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"mptcpsim"
	"mptcpsim/internal/campaign"
)

// Config scales the service.
type Config struct {
	// Workers bounds concurrent simulations per job; <= 0 selects
	// GOMAXPROCS.
	Workers int
	// CacheDir, when non-empty, is the shared content-addressed result
	// cache every job reads and writes. It is server-side configuration:
	// request bodies cannot name a cache path.
	CacheDir string
	// MaxN caps the campaign size a single submission may request
	// (default 10000): the knob that keeps one request from parking hours
	// of simulation on the service.
	MaxN int
}

// defaultMaxN caps submissions when Config.MaxN is zero.
const defaultMaxN = 10000

// maxJobs bounds the job table, and with it the CampaignResults a
// long-lived server keeps resident.
const maxJobs = 256

// Job states reported by the status API.
const (
	stateRunning  = "running"
	stateDone     = "done"
	stateFailed   = "failed"
	stateCanceled = "canceled"
)

// Status is the polling view of one job.
type Status struct {
	ID    string `json:"id"`
	Name  string `json:"name"`
	State string `json:"state"`
	// Done and Total are the job's scenario counters.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Error carries the failure message in state "failed" or "canceled".
	Error string `json:"error,omitempty"`
	// Digest fingerprints the result's statistical content, in state
	// "done".
	Digest string `json:"digest,omitempty"`
}

// job is one submitted campaign.
type job struct {
	id     string
	name   string
	cancel context.CancelFunc

	mu          sync.Mutex
	state       string
	done, total int
	result      *mptcpsim.CampaignResult
	err         error
	// change is closed and replaced on every update, waking every events
	// stream blocked on the previous channel.
	change chan struct{}
}

// update mutates the job under its lock and wakes the streams.
func (j *job) update(fn func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	fn()
	close(j.change)
	j.change = make(chan struct{})
}

// terminal reports whether the job has left state "running".
func (j *job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state != stateRunning
}

// snapshot returns the job's status plus the channel that will be closed
// on its next change.
func (j *job) snapshot() (Status, *mptcpsim.CampaignResult, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{ID: j.id, Name: j.name, State: j.state, Done: j.done, Total: j.total}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.result != nil {
		st.Digest = j.result.Digest()
	}
	return st, j.result, j.change
}

// Server is the campaign job service. Construct with NewServer, mount
// Handler, and Close on the way out.
type Server struct {
	cfg Config
	// base is the lifecycle context every job derives from; cancel tears
	// the whole service down.
	base   context.Context
	cancel context.CancelFunc
	mux    *http.ServeMux
	wg     sync.WaitGroup

	mu     sync.Mutex
	closed bool // set by Close; no job starts afterwards
	jobs   map[string]*job
	order  []string // submission order, for stable listings
	nextID int
}

// NewServer builds the service. Jobs derive from ctx: cancelling it stops
// every running campaign at its next scenario boundary.
func NewServer(ctx context.Context, cfg Config) *Server {
	if cfg.MaxN <= 0 {
		cfg.MaxN = defaultMaxN
	}
	base, cancel := context.WithCancel(ctx)
	s := &Server{cfg: cfg, base: base, cancel: cancel, jobs: make(map[string]*job)}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/version", s.handleVersion)
	mux.HandleFunc("POST /v1/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /v1/campaigns", s.handleList)
	mux.HandleFunc("GET /v1/campaigns/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/campaigns/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/campaigns/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /v1/campaigns/{id}", s.handleCancel)
	s.mux = mux
	return s
}

// Handler returns the service's HTTP handler, mountable under any server.
func (s *Server) Handler() http.Handler { return s.mux }

// Close cancels every running job and blocks until their workers drain.
// The Server is not usable afterwards: submissions answer 503. The closed
// flag is set under the lock handleSubmit starts jobs under, so no job is
// added to wg once Wait has been called.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cancel()
	s.wg.Wait()
}

// writeJSON emits one JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// The connection is the only place this error could go.
	_ = enc.Encode(v)
}

// writeError emits the uniform error body.
func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleVersion(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"version": mptcpsim.Version()})
}

// handleSubmit accepts a campaign spec — request fields overlay the
// default population, so `{}` is a valid submission — validates it, and
// starts the job. Responds 202 with the job's id and initial status.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := campaign.Decode(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if spec.N > s.cfg.MaxN {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("campaign size %d exceeds this server's limit of %d", spec.N, s.cfg.MaxN))
		return
	}
	spec.CacheDir = s.cfg.CacheDir

	s.mu.Lock()
	if s.closed || s.base.Err() != nil {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	jobCtx, jobCancel := context.WithCancel(s.base)
	s.makeRoom()
	s.nextID++
	j := &job{
		id:     "c" + strconv.Itoa(s.nextID),
		name:   spec.Name,
		cancel: jobCancel,
		state:  stateRunning,
		change: make(chan struct{}),
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.wg.Add(1)
	s.mu.Unlock()

	// Snapshot before the job starts: a one-scenario cache hit can finish
	// before this handler's next line, and 202 promises the initial status.
	st, _, _ := j.snapshot()
	go s.run(jobCtx, j, *spec)
	writeJSON(w, http.StatusAccepted, st)
}

// makeRoom forgets the oldest finished jobs until the table has room for one
// more. With maxJobs jobs all still running it forgets none: the table then
// grows past the bound rather than lose a job a client is waiting for.
// Called with s.mu held.
func (s *Server) makeRoom() {
	for i := 0; i < len(s.order) && len(s.order) >= maxJobs; {
		if id := s.order[i]; s.jobs[id].terminal() {
			delete(s.jobs, id)
			s.order = slices.Delete(s.order, i, i+1)
		} else {
			i++
		}
	}
}

// run executes one job to completion on its own Lab.
func (s *Server) run(ctx context.Context, j *job, spec mptcpsim.CampaignSpec) {
	defer s.wg.Done()
	defer j.cancel()
	lab := mptcpsim.NewLab(
		mptcpsim.WithWorkers(s.cfg.Workers),
		mptcpsim.WithProgress(func(ev mptcpsim.ProgressEvent) {
			if ev.Kind != mptcpsim.ProgressJobs {
				return
			}
			j.update(func() { j.done, j.total = ev.Done, ev.Total })
		}),
	)
	res, err := lab.Campaign(ctx, spec)
	j.update(func() {
		switch {
		case err == nil:
			j.state = stateDone
			j.result = res
		case errors.Is(err, mptcpsim.ErrCanceled):
			j.state = stateCanceled
			j.err = err
		default:
			j.state = stateFailed
			j.err = err
		}
	})
}

// get looks a job up by the request's {id}.
func (s *Server) get(r *http.Request) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[r.PathValue("id")]
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		st, _, _ := j.snapshot()
		out = append(out, st)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.get(r)
	if j == nil {
		writeError(w, http.StatusNotFound, "no such campaign")
		return
	}
	st, _, _ := j.snapshot()
	writeJSON(w, http.StatusOK, st)
}

// handleResult serves the completed result; until the job reaches a
// terminal state it answers 409 so pollers can distinguish "not yet" from
// "no such job".
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.get(r)
	if j == nil {
		writeError(w, http.StatusNotFound, "no such campaign")
		return
	}
	st, res, _ := j.snapshot()
	switch st.State {
	case stateRunning:
		writeError(w, http.StatusConflict, "campaign still running")
	case stateDone:
		data, err := res.RenderJSON()
		if err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(data)
	default:
		writeError(w, http.StatusGone, st.Error)
	}
}

// handleEvents streams the job's status as NDJSON — one Status line per
// change, ending with the line that carries the terminal state. The
// stream also ends when the client disconnects or the server shuts down.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.get(r)
	if j == nil {
		writeError(w, http.StatusNotFound, "no such campaign")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		st, _, change := j.snapshot()
		if err := enc.Encode(st); err != nil {
			return // client went away
		}
		if flusher != nil {
			flusher.Flush()
		}
		if st.State != stateRunning {
			return
		}
		select {
		case <-change:
		case <-r.Context().Done():
			return
		case <-s.base.Done():
			return
		}
	}
}

// handleCancel cancels the job's context; the job transitions to
// "canceled" once its workers reach the next scenario boundary. Cancelling
// a finished job is a no-op.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.get(r)
	if j == nil {
		writeError(w, http.StatusNotFound, "no such campaign")
		return
	}
	j.cancel()
	st, _, _ := j.snapshot()
	writeJSON(w, http.StatusAccepted, st)
}

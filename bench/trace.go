package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one op
// share (Workload, Op); Parent is the index of the enclosing span in the
// trace, -1 for an op's root.
type span struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Op       int    `json:"op_id"`
	Parent   int    `json:"parent"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer records spans in memory; it is written out once, at exit. A nil
// tracer records nothing, so the untraced pass runs the same op code with
// no clock reads beyond its own.
type tracer struct {
	epoch    time.Time
	spans    []span
	stack    []int
	workload string
	op       int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Workload: t.workload, Op: t.op, Parent: parent})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	t.spans[id].StartNs = time.Since(t.epoch).Nanoseconds()
	return id
}

// end closes span id, which must be the innermost open span, and returns
// its duration in nanoseconds.
func (t *tracer) end(id int) float64 {
	if t == nil {
		return 0
	}
	s := &t.spans[id]
	s.EndNs = time.Since(t.epoch).Nanoseconds()
	t.stack = t.stack[:len(t.stack)-1]
	return float64(s.EndNs - s.StartNs)
}

// durations lists, in nanoseconds, every span of one workload with the
// given name.
func (t *tracer) durations(workload, name string) []float64 {
	var out []float64
	for i := range t.spans {
		if s := &t.spans[i]; s.Workload == workload && s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs))
		}
	}
	return out
}

// selfRow is one line of the self-time summary: for a (workload, span
// name) pair, how often it ran, its total time, and the part of that time
// not covered by child spans.
type selfRow struct {
	Workload string  `json:"workload"`
	Name     string  `json:"name"`
	Count    int     `json:"count"`
	TotalMs  float64 `json:"total_ms"`
	SelfMs   float64 `json:"self_ms"`
}

// selfTimes folds the spans into per-name totals with self time = span −
// children. Children of one parent never overlap (one client, closed loop),
// so subtracting their sum is exact.
func (t *tracer) selfTimes() []selfRow {
	child := make([]int64, len(t.spans))
	for i := range t.spans {
		if p := t.spans[i].Parent; p >= 0 {
			child[p] += t.spans[i].EndNs - t.spans[i].StartNs
		}
	}
	type key struct{ workload, name string }
	rows := map[key]*selfRow{}
	for i := range t.spans {
		s := &t.spans[i]
		k := key{s.Workload, s.Name}
		r := rows[k]
		if r == nil {
			r = &selfRow{Workload: s.Workload, Name: s.Name}
			rows[k] = r
		}
		d := s.EndNs - s.StartNs
		r.Count++
		r.TotalMs += float64(d) / 1e6
		r.SelfMs += float64(d-child[i]) / 1e6
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Workload != out[j].Workload {
			return out[i].Workload < out[j].Workload
		}
		return out[i].TotalMs > out[j].TotalMs
	})
	return out
}

// write stores the spans and their self-time summary as one JSON document.
func (t *tracer) write(path string, self []selfRow) error {
	data, err := json.Marshal(struct {
		Self  []selfRow `json:"self_time"`
		Spans []span    `json:"spans"`
	}{self, t.spans})
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}

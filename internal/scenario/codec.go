package scenario

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
)

// The one binary encoding of a Spec and of a RunReport. The campaign cache
// keys entries by a hash of AppendSpec and stores AppendReport, Digest
// hashes AppendReport's identity section, and behaviour.lock holds
// prefixes of both. The primitives:
//
//	string   uvarint length, then the bytes
//	slice    uvarint element count, then the elements (nil and empty alike)
//	int*     zig-zag varint
//	uint64   uvarint
//	float64  the IEEE-754 bits, 8 bytes little-endian
//	bool     one byte, 0 or 1
//	pointer  a bool for presence, then the fields
//
// Floats travel as their bits, so NaN, ±Inf and −0 survive and a warm fold
// sees the samples the cold one saw. The encoding is canonical — varints
// are minimal, bools are 0 or 1, nothing follows the last field — so any
// bytes that decode re-encode to themselves.
//
// A report is its identity section (appendIdentity, which Digest hashes),
// then Processed, then every other field, derived: that order is the one
// table of what identifies a run. TestCodecRoundTripEveryField fails on a
// report field without a codec line (which bumps the cache schema), and
// TestDigestCoversIdentityFields holds each field to its section.

// The least bytes one element of each slice can occupy; a count is checked
// against the bytes that remain before anything is allocated for it.
const (
	minStringBytes = 1                 // a byte, or a string's length prefix
	minFloatBytes  = 8                 // PathMbps, a trace column
	minFlowBytes   = 2 + 8 + 1 + 5 + 2 // two strings, a float, a count, five ints, two presences
	minQueueBytes  = 1 + 6 + 6 + 2 + 1 // Link, two Counters, two lengths, LossDropped
	minTimeBytes   = 1                 // a trace sample's time
	minColumnBytes = 1                 // a trace column's count
)

var (
	errTruncated = errors.New("scenario: report encoding: truncated")
	errLength    = errors.New("scenario: report encoding: length exceeds the input")
	errCanonical = errors.New("scenario: report encoding: non-canonical encoding")
	errTrailing  = errors.New("scenario: report encoding: trailing bytes")
)

// Digest is the comparable fingerprint of a run, for the re-run
// byte-identity invariant: two runs of one spec must agree exactly.
type Digest struct {
	Processed uint64
	// Traffic is the SHA-256 of the report's identity section: per-flow
	// byte counts and stream state, per-queue counters.
	Traffic [sha256.Size]byte
}

// Digest fingerprints the report. The identity section is encoded on the
// stack; one of a few dozen flows and more grows onto the heap.
func (r *RunReport) Digest() Digest {
	var buf [512]byte
	return Digest{Processed: r.Processed, Traffic: sha256.Sum256(appendIdentity(buf[:0], r))}
}

// AppendReport appends r's encoding to b.
func AppendReport(b []byte, r *RunReport) []byte {
	b = appendIdentity(b, r)
	b = binary.AppendUvarint(b, r.Processed)
	b = appendString(b, r.Name)
	b = binary.AppendVarint(b, r.Seed)
	for i := range r.Flows {
		f := &r.Flows[i]
		b = appendString(b, f.Algorithm)
		b = appendFloat(b, f.GoodputMbps)
		b = binary.AppendUvarint(b, uint64(len(f.PathMbps)))
		for _, v := range f.PathMbps {
			b = appendFloat(b, v)
		}
		b = binary.AppendVarint(b, f.SentPkts)
		b = binary.AppendVarint(b, f.Timeouts)
		if s := f.Stream; s != nil {
			b = appendString(b, s.Scheduler)
			b = appendFloat(b, s.CompletionSec)
		}
		b = binary.AppendVarint(b, f.WindowBytes)
		// A completion time is there or not: 0 (or −0) travels as absent.
		b = appendBool(b, f.CompletionSec != 0)
		if f.CompletionSec != 0 {
			b = appendFloat(b, f.CompletionSec)
		}
		b = binary.AppendVarint(b, int64(f.Suspends))
	}
	for i := range r.Queues {
		q := &r.Queues[i]
		b = appendCounters(b, &q.Window)
		b = binary.AppendVarint(b, int64(q.FinalLen))
		b = binary.AppendVarint(b, int64(q.MaxLen))
		b = binary.AppendVarint(b, q.LossDropped)
	}
	b = binary.AppendUvarint(b, uint64(len(r.Violations)))
	for _, v := range r.Violations {
		b = appendString(b, v)
	}
	b = appendBool(b, r.Trace != nil)
	if tr := r.Trace; tr != nil {
		b = binary.AppendUvarint(b, uint64(len(tr.T)))
		for _, t := range tr.T {
			//simlint:ignore unitsafety the encoding carries a time as its exact nanosecond count
			b = binary.AppendVarint(b, int64(t))
		}
		b = binary.AppendUvarint(b, uint64(len(tr.V)))
		for _, col := range tr.V {
			b = binary.AppendUvarint(b, uint64(len(col)))
			for _, v := range col {
				b = appendFloat(b, v)
			}
		}
	}
	return appendStats(b, &r.Stats)
}

// appendIdentity appends the identity section of r's encoding to b: per
// flow its name, goodput bytes and stream state, per queue its link and
// total counters.
func appendIdentity(b []byte, r *RunReport) []byte {
	b = binary.AppendUvarint(b, uint64(len(r.Flows)))
	for i := range r.Flows {
		f := &r.Flows[i]
		b = appendString(b, f.Name)
		b = binary.AppendVarint(b, f.GoodputBytes)
		b = appendBool(b, f.Stream != nil)
		if s := f.Stream; s != nil {
			b = binary.AppendVarint(b, s.InOrderBytes)
			b = binary.AppendVarint(b, s.DeliveredBytes)
			b = appendBool(b, s.Done)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(r.Queues)))
	for i := range r.Queues {
		q := &r.Queues[i]
		b = binary.AppendVarint(b, int64(q.Link))
		b = appendCounters(b, &q.Total)
	}
	return b
}

// AppendSpec appends sp's encoding to b: every field of Spec, LinkSpec,
// PathSpec, FlowSpec, TimelineEvent, LinkSetpoint, PathFlap and TraceSpec
// in declaration order. Lengths and presence come first, so the encoding is
// prefix-free and distinct bytes mean distinct specs. A NaN or ±Inf is an
// error.
//
// TestAppendSpecCoversEveryField changes every field of those types in
// turn: a field added without a line here fails it.
func AppendSpec(b []byte, sp *Spec) ([]byte, error) {
	e := specEncoder{b: b}
	e.str(sp.Name)
	e.int(sp.Seed)
	e.float(sp.WarmupSec)
	e.float(sp.DurationSec)
	e.count(len(sp.Links))
	for i := range sp.Links {
		l := &sp.Links[i]
		e.float(l.RateMbps)
		e.float(l.DelayMs)
		e.str(string(l.Queue))
		e.int(int64(l.BufferPkts))
		e.float(l.LossPct)
	}
	e.count(len(sp.Paths))
	for i := range sp.Paths {
		p := &sp.Paths[i]
		e.ints(p.Links)
		e.float(p.DelayMs)
		if e.bool(p.Rev != nil) {
			e.ints(p.Rev)
		}
	}
	e.count(len(sp.Flows))
	for i := range sp.Flows {
		f := &sp.Flows[i]
		e.str(f.Name)
		e.str(f.Algorithm)
		e.ints(f.Paths)
		e.int(int64(f.Count))
		e.float(f.StartSec)
		e.bool(f.StartJitter)
		e.float(f.StopSec)
		e.int(f.FlowBytes)
		e.str(f.Scheduler)
		e.int(f.ChunkBytes)
		e.bool(f.KeepSlowStart)
		e.float(f.MaxCwndPkts)
		e.bool(f.NoIncreaseCap)
		e.bool(f.Serial)
		e.bool(f.DelayedAck)
		e.bool(f.ProbeControl)
	}
	e.count(len(sp.Timeline))
	for i := range sp.Timeline {
		ev := &sp.Timeline[i]
		e.float(ev.AtSec)
		if e.bool(ev.Link != nil) {
			ls := ev.Link
			e.int(int64(ls.Link))
			e.float(ls.RateMbps)
			if e.bool(ls.DelayMs != nil) {
				e.float(*ls.DelayMs)
			}
			if e.bool(ls.LossPct != nil) {
				e.float(*ls.LossPct)
			}
		}
		if e.bool(ev.Path != nil) {
			e.int(int64(ev.Path.Path))
			e.bool(ev.Path.Up)
		}
	}
	e.float(sp.ReverseRateMbps)
	e.float(sp.ReverseDelayMs)
	if e.bool(sp.Trace != nil) {
		e.float(sp.Trace.PeriodMs)
		e.count(len(sp.Trace.Probes))
		for _, p := range sp.Trace.Probes {
			e.str(p)
		}
	}
	if e.bad {
		return e.b, fmt.Errorf("scenario: encoding spec: unsupported value: %v", e.nonFinite)
	}
	return e.b, nil
}

// specEncoder is AppendSpec's cursor; the first non-finite float sticks in
// nonFinite.
type specEncoder struct {
	b         []byte
	bad       bool    // a float was NaN or ±Inf
	nonFinite float64 // the first such float
}

func (e *specEncoder) str(s string) { e.b = appendString(e.b, s) }
func (e *specEncoder) int(v int64)  { e.b = binary.AppendVarint(e.b, v) }
func (e *specEncoder) count(n int)  { e.b = binary.AppendUvarint(e.b, uint64(n)) }

// bool encodes v and returns it, so a presence byte can guard its fields.
func (e *specEncoder) bool(v bool) bool {
	e.b = appendBool(e.b, v)
	return v
}

// float encodes v. A NaN or ±Inf is a float whose exponent bits are all
// set, so one test finds both, and the first one is kept for AppendSpec
// to report: the common case stays small enough to inline.
func (e *specEncoder) float(v float64) {
	bits := math.Float64bits(v)
	if bits&expBits == expBits && !e.bad {
		e.bad, e.nonFinite = true, v
	}
	e.b = binary.LittleEndian.AppendUint64(e.b, bits)
}

// expBits masks a float64's exponent.
const expBits = 0x7ff << 52

func (e *specEncoder) ints(vs []int) {
	e.count(len(vs))
	for _, v := range vs {
		e.int(int64(v))
	}
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendStats(b []byte, st *Stats) []byte {
	b = binary.AppendVarint(b, int64(st.HeapMax))
	b = binary.AppendVarint(b, int64(st.DataMax))
	b = binary.AppendVarint(b, int64(st.AcksMax))
	b = binary.AppendUvarint(b, st.SiftDown)
	b = binary.AppendUvarint(b, st.SiftUp)
	for _, n := range st.Events {
		b = binary.AppendUvarint(b, n)
	}
	return b
}

func appendCounters(b []byte, c *netem.Counters) []byte {
	b = binary.AppendVarint(b, c.ArrivedPkts)
	b = binary.AppendVarint(b, c.ArrivedBytes)
	b = binary.AppendVarint(b, c.DroppedPkts)
	b = binary.AppendVarint(b, c.DroppedBytes)
	b = binary.AppendVarint(b, c.SentPkts)
	return binary.AppendVarint(b, c.SentBytes)
}

// DecodeReportInto parses one AppendReport encoding into r, overwriting
// every field. Every byte is accounted for: a short read, a length or
// count the remaining bytes cannot hold, a non-canonical varint or bool,
// and anything after the last field are all errors; r then holds a
// partial decode.
//
// Whatever r held is storage to reuse: its slices when large enough, a
// flow's Stream when the encoding has one there too, and any string whose
// bytes the encoding repeats in the same place; other short strings come
// from the interned table. The result is the same whatever r held
// (FuzzDecodeReport), nil for every empty slice included, so a report
// recycled across decodes makes no garbage once its slices have grown to
// the largest it meets and its strings recur.
func DecodeReportInto(r *RunReport, data []byte) error {
	d := decoder{b: data}
	r.Flows = reuse(r.Flows, d.count(minFlowBytes))
	for i := range r.Flows {
		f := &r.Flows[i]
		f.Name = d.str(f.Name)
		f.GoodputBytes = d.varint()
		if !d.bool() {
			f.Stream = nil
			continue
		}
		if f.Stream == nil {
			f.Stream = new(StreamReport)
		}
		s := f.Stream
		s.InOrderBytes = d.varint()
		s.DeliveredBytes = d.varint()
		s.Done = d.bool()
	}
	r.Queues = reuse(r.Queues, d.count(minQueueBytes))
	for i := range r.Queues {
		q := &r.Queues[i]
		q.Link = d.int()
		d.counters(&q.Total)
	}
	r.Processed = d.uvarint()
	r.Name = d.str(r.Name)
	r.Seed = d.varint()
	for i := range r.Flows {
		f := &r.Flows[i]
		f.Algorithm = d.str(f.Algorithm)
		f.GoodputMbps = d.float()
		f.PathMbps = reuse(f.PathMbps, d.count(minFloatBytes))
		for j := range f.PathMbps {
			f.PathMbps[j] = d.float()
		}
		f.SentPkts = d.varint()
		f.Timeouts = d.varint()
		if s := f.Stream; s != nil {
			s.Scheduler = d.str(s.Scheduler)
			s.CompletionSec = d.float()
		}
		f.WindowBytes = d.varint()
		f.CompletionSec = 0
		if d.bool() {
			if f.CompletionSec = d.float(); f.CompletionSec == 0 {
				d.fail(errCanonical) // a zero completion is encoded as absent
			}
		}
		f.Suspends = d.int()
	}
	for i := range r.Queues {
		q := &r.Queues[i]
		d.counters(&q.Window)
		q.FinalLen = d.int()
		q.MaxLen = d.int()
		q.LossDropped = d.varint()
	}
	r.Violations = reuse(r.Violations, d.count(minStringBytes))
	for i := range r.Violations {
		r.Violations[i] = d.str(r.Violations[i])
	}
	if !d.bool() {
		r.Trace = nil
	} else {
		if r.Trace == nil {
			r.Trace = new(TraceReport)
		}
		tr := r.Trace
		tr.T = reuse(tr.T, d.count(minTimeBytes))
		for i := range tr.T {
			//simlint:ignore unitsafety the encoding carries a time as its exact nanosecond count
			tr.T[i] = sim.Time(d.varint())
		}
		tr.V = reuse(tr.V, d.count(minColumnBytes))
		for i := range tr.V {
			tr.V[i] = reuse(tr.V[i], d.count(minFloatBytes))
			for j := range tr.V[i] {
				tr.V[i][j] = d.float()
			}
		}
	}
	d.stats(&r.Stats)
	if d.err == nil && d.i != len(d.b) {
		d.err = errTrailing
	}
	return d.err
}

// reuse returns s resized to n elements, on its own storage when that is
// large enough; n == 0 gives nil, as a fresh decode leaves an empty slice.
// Elements keep what they held, for the decoder to overwrite or reuse.
func reuse[T any](s []T, n int) []T {
	switch {
	case n == 0:
		return nil
	case cap(s) < n:
		return make([]T, n)
	}
	return s[:n]
}

// decoder consumes an encoding front to back through the cursor i. The
// first failure sticks and moves the cursor to the end, after which every
// read returns zero, so DecodeReportInto reads straight through and checks
// err once.
type decoder struct {
	b   []byte
	i   int // the next byte to read
	err error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.i = len(d.b)
}

// uvarint reads a uvarint as binary.Uvarint does, rejecting what it
// rejects, a short one or one of more than 64 bits, as truncated, and a
// padded encoding of a smaller value, one whose last byte of several is 0,
// as non-canonical (FuzzDecodeVarint).
func (d *decoder) uvarint() uint64 {
	b, i := d.b, d.i
	var v uint64
	// s, the shift, never passes 63: masking it says so to the compiler,
	// which then shifts without a range check.
	for s := uint(0); i < len(b); s += 7 {
		c := b[i]
		i++
		if c < 0x80 {
			if s > 0 {
				switch {
				case c == 0: // a padded encoding of a smaller value
					d.fail(errCanonical)
					return 0
				case s == 63 && c > 1: // a tenth byte holds bit 63 alone
					d.fail(errTruncated)
					return 0
				}
			}
			d.i = i
			return v | uint64(c)<<(s&63)
		}
		if s == 63 { // an eleventh byte would follow
			break
		}
		v |= uint64(c&0x7f) << (s & 63)
	}
	d.fail(errTruncated) // short, or more than ten bytes
	return 0
}

// varint undoes binary.AppendVarint's zig-zag; the mapping is one-to-one,
// so a minimal uvarint is a minimal varint.
func (d *decoder) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (d *decoder) int() int {
	v := d.varint()
	if int64(int(v)) != v {
		d.fail(errCanonical)
		return 0
	}
	return int(v)
}

// count reads a length prefix for elements of at least min encoded bytes
// each and rejects one the remaining input cannot hold, so a hostile
// prefix never sizes an allocation.
func (d *decoder) count(min int) int {
	// n*min cannot overflow once n is no more than the remaining bytes.
	n, rest := d.uvarint(), uint64(len(d.b)-d.i)
	if n > rest || n*uint64(min) > rest {
		d.fail(errLength)
		return 0
	}
	return int(n)
}

// str reads a string, returning old itself when the bytes equal it, and
// otherwise the interned copy.
func (d *decoder) str(old string) string {
	n := d.count(minStringBytes)
	b := d.b[d.i : d.i+n]
	d.i += n
	if string(b) == old {
		return old
	}
	return intern(b)
}

// interned holds recently decoded short strings, in the slot a hash of
// their bytes picks. Reports repeat a handful of flow, controller and
// scheduler names in ever-changing positions, so a decode that finds its
// bytes here shares that string instead of copying them; a string longer
// than maxInterned (a violation message) is always copied. Decodes run
// concurrently, and a slot is only ever replaced whole. Like a sync.Pool,
// what the table holds changes what a decode allocates, never what it
// returns.
var interned [256]atomic.Pointer[string]

const maxInterned = 32

// intern returns a string with b's bytes, shared with earlier decodes when
// the table holds one.
func intern(b []byte) string {
	if len(b) > maxInterned {
		return string(b)
	}
	h := uint32(2166136261) // FNV-1a
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	slot := &interned[h%uint32(len(interned))]
	if p := slot.Load(); p != nil && *p == string(b) {
		return *p
	}
	s := string(b)
	slot.Store(&s)
	return s
}

func (d *decoder) float() float64 {
	if len(d.b)-d.i < 8 {
		d.fail(errTruncated)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.i:]))
	d.i += 8
	return v
}

func (d *decoder) bool() bool {
	if d.i >= len(d.b) {
		d.fail(errTruncated)
		return false
	}
	v := d.b[d.i]
	if v > 1 {
		d.fail(errCanonical)
		return false
	}
	d.i++
	return v == 1
}

func (d *decoder) counters(c *netem.Counters) {
	c.ArrivedPkts = d.varint()
	c.ArrivedBytes = d.varint()
	c.DroppedPkts = d.varint()
	c.DroppedBytes = d.varint()
	c.SentPkts = d.varint()
	c.SentBytes = d.varint()
}

func (d *decoder) stats(st *Stats) {
	st.HeapMax = d.int()
	st.DataMax = d.int()
	st.AcksMax = d.int()
	st.SiftDown = d.uvarint()
	st.SiftUp = d.uvarint()
	for i := range st.Events {
		st.Events[i] = d.uvarint()
	}
}

package campaign

import (
	"encoding/binary"
	"errors"
	"math"

	"mptcpsim/internal/netem"
	"mptcpsim/internal/scenario"
)

// The cache entry encoding of a scenario.RunReport. An entry is the header
// line (cacheSchema + "\n") followed by the report's fields in declaration
// order:
//
//	string   uvarint length, then the bytes
//	slice    uvarint element count, then the elements
//	int*     zig-zag varint
//	uint64   uvarint
//	float64  the IEEE-754 bits, 8 bytes little-endian
//	bool     one byte, 0 or 1
//	*Stream  a bool for presence, then the fields
//
// Floats travel as their bits, so NaN, ±Inf and −0 survive and a warm fold
// sees the samples the cold one saw. The encoding is canonical — varints
// are minimal, bools are 0 or 1, nothing follows the last field — so any
// bytes that decode re-encode to themselves; an empty slice and a nil one
// both encode as count 0 and decode as nil.
//
// TestCodecRoundTripEveryField walks the report types by reflection: a
// field added to any of them needs a line in appendReport and decodeReport
// (and a cacheSchema bump) or that test fails.

// reportHeader opens every entry: a stale or foreign file fails on its
// first bytes.
const reportHeader = cacheSchema + "\n"

// The least bytes one element of each slice can occupy; a count is checked
// against the bytes that remain before anything is allocated for it.
const (
	minStringBytes = 1                 // a byte, or a string's length prefix
	minFloatBytes  = 8                 // PathMbps
	minFlowBytes   = 2 + 8 + 1 + 3 + 1 // two strings, a float, a count, three ints, Stream's presence
	minQueueBytes  = 1 + 6 + 6 + 2 + 1 // Link, two Counters, two lengths, LossDropped
)

var (
	errHeader    = errors.New("campaign: cache entry: wrong header")
	errTruncated = errors.New("campaign: cache entry: truncated")
	errLength    = errors.New("campaign: cache entry: length exceeds the entry")
	errCanonical = errors.New("campaign: cache entry: non-canonical encoding")
	errTrailing  = errors.New("campaign: cache entry: trailing bytes")
)

// appendReport appends r's entry encoding to b.
func appendReport(b []byte, r *scenario.RunReport) []byte {
	b = append(b, reportHeader...)
	b = appendString(b, r.Name)
	b = binary.AppendVarint(b, r.Seed)
	b = binary.AppendUvarint(b, uint64(len(r.Flows)))
	for i := range r.Flows {
		f := &r.Flows[i]
		b = appendString(b, f.Name)
		b = appendString(b, f.Algorithm)
		b = appendFloat(b, f.GoodputMbps)
		b = binary.AppendUvarint(b, uint64(len(f.PathMbps)))
		for _, v := range f.PathMbps {
			b = appendFloat(b, v)
		}
		b = binary.AppendVarint(b, f.GoodputBytes)
		b = binary.AppendVarint(b, f.SentPkts)
		b = binary.AppendVarint(b, f.Timeouts)
		b = appendBool(b, f.Stream != nil)
		if s := f.Stream; s != nil {
			b = appendString(b, s.Scheduler)
			b = appendBool(b, s.Done)
			b = appendFloat(b, s.CompletionSec)
			b = binary.AppendVarint(b, s.InOrderBytes)
			b = binary.AppendVarint(b, s.DeliveredBytes)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(r.Queues)))
	for i := range r.Queues {
		q := &r.Queues[i]
		b = binary.AppendVarint(b, int64(q.Link))
		b = appendCounters(b, &q.Total)
		b = appendCounters(b, &q.Window)
		b = binary.AppendVarint(b, int64(q.FinalLen))
		b = binary.AppendVarint(b, int64(q.MaxLen))
		b = binary.AppendVarint(b, q.LossDropped)
	}
	b = binary.AppendUvarint(b, r.Processed)
	b = binary.AppendUvarint(b, uint64(len(r.Violations)))
	for _, v := range r.Violations {
		b = appendString(b, v)
	}
	return b
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

func appendCounters(b []byte, c *netem.Counters) []byte {
	b = binary.AppendVarint(b, c.ArrivedPkts)
	b = binary.AppendVarint(b, c.ArrivedBytes)
	b = binary.AppendVarint(b, c.DroppedPkts)
	b = binary.AppendVarint(b, c.DroppedBytes)
	b = binary.AppendVarint(b, c.SentPkts)
	return binary.AppendVarint(b, c.SentBytes)
}

// decodeReport parses one entry. Every byte is accounted for: a wrong
// header, a short read, a length or count the remaining bytes cannot hold,
// a non-canonical varint or bool, and anything after the last field are
// all errors, and the caller treats every error as a cache miss.
func decodeReport(data []byte) (*scenario.RunReport, error) {
	if len(data) < len(reportHeader) || string(data[:len(reportHeader)]) != reportHeader {
		return nil, errHeader
	}
	d := decoder{b: data[len(reportHeader):]}
	r := &scenario.RunReport{Name: d.str(), Seed: d.varint()}
	if n := d.count(minFlowBytes); n > 0 {
		r.Flows = make([]scenario.FlowReport, n)
	}
	for i := range r.Flows {
		f := &r.Flows[i]
		f.Name = d.str()
		f.Algorithm = d.str()
		f.GoodputMbps = d.float()
		if n := d.count(minFloatBytes); n > 0 {
			f.PathMbps = make([]float64, n)
		}
		for j := range f.PathMbps {
			f.PathMbps[j] = d.float()
		}
		f.GoodputBytes = d.varint()
		f.SentPkts = d.varint()
		f.Timeouts = d.varint()
		if d.bool() {
			f.Stream = &scenario.StreamReport{
				Scheduler:      d.str(),
				Done:           d.bool(),
				CompletionSec:  d.float(),
				InOrderBytes:   d.varint(),
				DeliveredBytes: d.varint(),
			}
		}
	}
	if n := d.count(minQueueBytes); n > 0 {
		r.Queues = make([]scenario.QueueReport, n)
	}
	for i := range r.Queues {
		q := &r.Queues[i]
		q.Link = d.int()
		d.counters(&q.Total)
		d.counters(&q.Window)
		q.FinalLen = d.int()
		q.MaxLen = d.int()
		q.LossDropped = d.varint()
	}
	r.Processed = d.uvarint()
	if n := d.count(minStringBytes); n > 0 {
		r.Violations = make([]string, n)
	}
	for i := range r.Violations {
		r.Violations[i] = d.str()
	}
	if d.err == nil && len(d.b) != 0 {
		d.err = errTrailing
	}
	if d.err != nil {
		return nil, d.err
	}
	return r, nil
}

// decoder consumes an entry front to back. The first failure sticks and
// empties the input, after which every read returns zero, so decodeReport
// reads straight through and checks err once.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.b = nil
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	switch {
	case n <= 0: // short, or more than 64 bits
		d.fail(errTruncated)
		return 0
	case n > 1 && d.b[n-1] == 0: // a padded encoding of a smaller value
		d.fail(errCanonical)
		return 0
	}
	d.b = d.b[n:]
	return v
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
	n := d.uvarint()
	if n > uint64(len(d.b)/min) {
		d.fail(errLength)
		return 0
	}
	return int(n)
}

func (d *decoder) str() string {
	n := d.count(minStringBytes)
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *decoder) float() float64 {
	if len(d.b) < 8 {
		d.fail(errTruncated)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

func (d *decoder) bool() bool {
	if len(d.b) < 1 {
		d.fail(errTruncated)
		return false
	}
	v := d.b[0]
	if v > 1 {
		d.fail(errCanonical)
		return false
	}
	d.b = d.b[1:]
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

package campaign

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"mptcpsim/internal/scenario"
)

// fillDistinct sets every field reachable from v to a value no other field
// holds, none of them zero: slices get two elements, pointers a target.
// It fails on a kind it does not know, so a map or interface added to a
// report type is met here before it is met in a cache.
func fillDistinct(t testing.TB, v reflect.Value, next *int) {
	t.Helper()
	*next++
	switch v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *next))
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*next))
	case reflect.Uint64:
		v.SetUint(uint64(*next))
	case reflect.Float64:
		v.SetFloat(float64(*next) + 0.5)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillDistinct(t, v.Index(i), next)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillDistinct(t, v.Elem(), next)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillDistinct(t, v.Field(i), next)
		}
	default:
		t.Fatalf("report field of kind %s: teach fillDistinct and the codec about it", v.Kind())
	}
}

// fullReport is a report in which every field of every report type holds
// its own non-zero value.
func fullReport(t testing.TB) *scenario.RunReport {
	t.Helper()
	var full scenario.RunReport
	n := 0
	fillDistinct(t, reflect.ValueOf(&full).Elem(), &n)
	return &full
}

// wideReport is fullReport with eight flows, eight queues and three
// violations, every flow with a Stream: a report recycled from it decodes
// the real entries inside its own storage, so stale fields meet the
// decoder instead of fresh allocations.
func wideReport(t testing.TB) *scenario.RunReport {
	r := fullReport(t)
	for len(r.Flows) < 8 {
		r.Flows = append(r.Flows, r.Flows...)
		r.Queues = append(r.Queues, r.Queues...)
	}
	r.Violations = append(r.Violations, "queue over its cap")
	// The doubling shares Streams and PathMbps between flows; a trip
	// through the codec gives every flow its own, as a decode would.
	wide, err := decodeReport(appendReport(nil, r))
	if err != nil {
		t.Fatal(err)
	}
	return wide
}

// roundTrip encodes, decodes and checks the encoding is canonical.
func roundTrip(t *testing.T, rep *scenario.RunReport) *scenario.RunReport {
	t.Helper()
	enc := appendReport(nil, rep)
	got, err := decodeReport(enc)
	if err != nil {
		t.Fatalf("decoding a fresh encoding: %v", err)
	}
	if again := appendReport(nil, got); !bytes.Equal(again, enc) {
		t.Fatalf("re-encoding changed the bytes:\n%x\n%x", enc, again)
	}
	return got
}

// TestCodecRoundTripEveryField is what keeps the hand-written codec in step
// with the report types: every field of RunReport, FlowReport,
// StreamReport, QueueReport and netem.Counters is given its own value, and
// one the codec drops or crosses comes back different.
func TestCodecRoundTripEveryField(t *testing.T) {
	full := fullReport(t)
	if got := roundTrip(t, full); !reflect.DeepEqual(got, full) {
		t.Errorf("round trip changed the report:\n got %+v\nwant %+v", got, full)
	}
	if got := roundTrip(t, &scenario.RunReport{}); !reflect.DeepEqual(got, &scenario.RunReport{}) {
		t.Errorf("round trip changed the zero report: %+v", got)
	}
}

func TestCodecFloatBits(t *testing.T) {
	patterns := []uint64{
		math.Float64bits(math.NaN()),
		0x7ff0000000000001, // a signalling NaN with a payload
		math.Float64bits(math.Inf(1)),
		math.Float64bits(math.Inf(-1)),
		math.Float64bits(math.Copysign(0, -1)),
		1, // the smallest subnormal
		math.Float64bits(math.MaxFloat64),
		math.Float64bits(0.1),
	}
	for _, bits := range patterns {
		v := math.Float64frombits(bits)
		rep := &scenario.RunReport{Flows: []scenario.FlowReport{{
			GoodputMbps: v,
			PathMbps:    []float64{v},
			Stream:      &scenario.StreamReport{CompletionSec: v},
		}}}
		f := roundTrip(t, rep).Flows[0]
		for name, got := range map[string]float64{
			"GoodputMbps": f.GoodputMbps, "PathMbps[0]": f.PathMbps[0], "CompletionSec": f.Stream.CompletionSec,
		} {
			if math.Float64bits(got) != bits {
				t.Errorf("%s: %016x came back as %016x", name, bits, math.Float64bits(got))
			}
		}
	}
}

// TestCodecIntegerRange covers the varint extremes the distinct-value walk
// does not reach.
func TestCodecIntegerRange(t *testing.T) {
	rep := &scenario.RunReport{
		Seed:      math.MinInt64,
		Processed: math.MaxUint64,
		Flows:     []scenario.FlowReport{{GoodputBytes: math.MaxInt64, SentPkts: -1, Timeouts: math.MinInt64}},
		Queues:    []scenario.QueueReport{{Link: -1, FinalLen: math.MaxInt, MaxLen: math.MinInt}},
	}
	if got := roundTrip(t, rep); !reflect.DeepEqual(got, rep) {
		t.Errorf("round trip changed the report:\n got %+v\nwant %+v", got, rep)
	}
}

// realReports runs three short sampled scenarios: a long-lived user, a
// finite scheduled transfer, and the latter again carrying violations.
func realReports(t testing.TB) []*scenario.RunReport {
	t.Helper()
	sp := tinySpec().fill()
	var longLived, finite *scenario.RunReport
	for i := 0; longLived == nil || finite == nil; i++ {
		spec := sp.SampleSpec(i)
		slot := &longLived
		if spec.Flows[0].FlowBytes > 0 {
			slot = &finite
		}
		if *slot != nil {
			continue
		}
		rep, err := scenario.Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("scenario %d: %v", i, err)
		}
		*slot = rep
	}
	if finite.Flows[0].Stream == nil {
		t.Fatal("finite transfer reported no stream")
	}
	flagged := *finite
	flagged.Violations = []string{"link 0: queue 12 exceeds cap 10", "flow user-0: cwnd 0 < 1"}
	return []*scenario.RunReport{longLived, finite, &flagged}
}

func TestCodecRealReports(t *testing.T) {
	for _, rep := range realReports(t) {
		if got := roundTrip(t, rep); !reflect.DeepEqual(got, rep) {
			t.Errorf("%s: round trip changed the report:\n got %+v\nwant %+v", rep.Name, got, rep)
		}
	}
}

// TestDecodeRejects: an entry is all of its bytes and no more.
func TestDecodeRejects(t *testing.T) {
	enc := appendReport(nil, fullReport(t))
	for cut := 0; cut < len(enc); cut++ {
		if _, err := decodeReport(enc[:cut]); err == nil {
			t.Errorf("the %d-byte prefix of a %d-byte entry decoded", cut, len(enc))
		}
	}
	if _, err := decodeReport(append(enc[:len(enc):len(enc)], 0)); err != errTrailing {
		t.Errorf("entry plus one byte: %v, want %v", err, errTrailing)
	}
	v1 := []byte(`{"name":"x","seed":3,"flows":null,"queues":null,"processed":42}`)
	if _, err := decodeReport(v1); err != errHeader {
		t.Errorf("a v1 JSON entry: %v, want %v", err, errHeader)
	}

	// The same value, padded or out of range, is not the same entry.
	body := func(b ...byte) []byte { return append([]byte(reportHeader), b...) }
	empty := []byte{0, 0, 0, 0, 0, 0} // Name, Seed, Flows, Queues, Processed, Violations
	if _, err := decodeReport(body(empty...)); err != nil {
		t.Fatalf("the zero report's body: %v", err)
	}
	for name, tc := range map[string]struct {
		body []byte
		want error
	}{
		"padded varint":    {[]byte{0x80, 0, 0, 0, 0, 0, 0}, errCanonical},
		"65-bit varint":    {append(bytes.Repeat([]byte{0xff}, 9), 2, 0, 0, 0, 0, 0), errTruncated},
		"bool of 2":        {[]byte{0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0}, errCanonical},
		"name past end":    {[]byte{7, 'x', 0, 0, 0, 0}, errLength},
		"flows past end":   {[]byte{0, 0, 1, 0, 0, 0}, errLength},
		"strings past end": {[]byte{0, 0, 0, 0, 0, 1}, errLength},
	} {
		if _, err := decodeReport(body(tc.body...)); err != tc.want {
			t.Errorf("%s: %v, want %v", name, err, tc.want)
		}
	}
}

// TestDecodeHugeLengthDoesNotAllocate: a length prefix is checked against
// the bytes that remain before it sizes anything, wherever it stands.
func TestDecodeHugeLengthDoesNotAllocate(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<40)
	for name, prefix := range map[string][]byte{
		"name":       {},
		"flows":      {0, 0},
		"path_mbps":  {0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		"queues":     {0, 0, 0},
		"violations": {0, 0, 0, 0, 0},
	} {
		enc := append(append([]byte(reportHeader), prefix...), huge...)
		enc = append(enc, make([]byte, 64)...)
		var err error
		allocs := testing.AllocsPerRun(10, func() { _, err = decodeReport(enc) })
		if err != errLength {
			t.Errorf("%s length 2^40: %v, want %v", name, err, errLength)
		}
		// The report itself, and for path_mbps its one flow.
		if allocs > 2 {
			t.Errorf("%s length 2^40: %v allocations", name, allocs)
		}
	}
}

// TestDecodeConcurrent: workers decode at once through the shared table of
// interned strings (run it under -race), each into one report recycled
// across entries, and every decode equals the fresh one.
func TestDecodeConcurrent(t *testing.T) {
	reports := append(realReports(t), fullReport(t))
	entries := make([][]byte, len(reports))
	for i, rep := range reports {
		entries[i] = appendReport(nil, rep)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep := new(scenario.RunReport)
			for k := 0; k < 200; k++ {
				i := (w + k) % len(entries)
				if err := decodeReportInto(rep, entries[i]); err != nil || !reflect.DeepEqual(rep, reports[i]) {
					t.Errorf("worker %d, entry %d: %v\n got %+v\nwant %+v", w, i, err, rep, reports[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzDecodeReport: arbitrary bytes never panic the decoder, and whatever
// decodes is the one encoding of its report. Decoding into a report
// recycled from each real report and from wideReport — Streams, PathMbps,
// Violations and strings of their own to reuse or drop — gives the same
// error, or a report equal to the fresh decode.
func FuzzDecodeReport(f *testing.F) {
	reals := realReports(f)
	for _, rep := range reals {
		f.Add(appendReport(nil, rep))
	}
	f.Add(appendReport(nil, &scenario.RunReport{}))
	priors := append(reals, wideReport(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := decodeReport(data)
		for _, prior := range priors {
			// A copy, so the decode cannot write into the seed corpus.
			recycled, cerr := decodeReport(appendReport(nil, prior))
			if cerr != nil {
				t.Fatal(cerr)
			}
			if rerr := decodeReportInto(recycled, data); rerr != err {
				t.Fatalf("decoding into %s's report: %v, fresh: %v", prior.Name, rerr, err)
			}
			if err == nil && !reflect.DeepEqual(recycled, rep) {
				t.Fatalf("decoding into %s's report:\n got %+v\nwant %+v", prior.Name, recycled, rep)
			}
		}
		if err != nil {
			return
		}
		if again := appendReport(nil, rep); !bytes.Equal(again, data) {
			t.Fatalf("decoded bytes re-encode differently:\n%x\n%x", data, again)
		}
	})
}

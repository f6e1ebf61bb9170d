package scenario

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"mptcpsim/internal/sim"
)

// fillDistinct sets every field reachable from v to a value no other field
// holds, none of them zero: slices get two elements, pointers a target.
// It fails on a kind it does not know, so a map or interface added to a
// report or spec type is met here before it is met in a cache.
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
	case reflect.Array:
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
		t.Fatalf("field of kind %s: teach fillDistinct and the codec about it", v.Kind())
	}
}

// eachChange changes every field reachable from v in turn — a leaf
// altered, a pointer cleared, a slice shortened — calls check with the
// field's path, and restores it; it returns the number of changes made.
// A path names fields without indices ("Flows.Stream.Done"), so a check
// can look it up in a table; an array's elements are changed one by one,
// under the array's path.
func eachChange(t *testing.T, v reflect.Value, path string, check func(path string)) int {
	t.Helper()
	old := reflect.New(v.Type()).Elem()
	old.Set(v)
	switch v.Kind() {
	case reflect.String:
		v.SetString(v.String() + "'")
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Pointer:
		v.Set(reflect.Zero(v.Type()))
	case reflect.Slice:
		v.Set(v.Slice(0, v.Len()-1))
	case reflect.Struct:
		changes := 0
		for i := 0; i < v.NumField(); i++ {
			changes += eachChange(t, v.Field(i), strings.TrimPrefix(path+"."+v.Type().Field(i).Name, "."), check)
		}
		return changes
	case reflect.Array:
		changes := 0
		for i := 0; i < v.Len(); i++ {
			changes += eachChange(t, v.Index(i), path, check)
		}
		return changes
	default:
		t.Fatalf("%s: field of kind %s: teach eachChange about it", path, v.Kind())
	}
	check(path)
	v.Set(old)
	changes := 1
	switch v.Kind() {
	case reflect.Pointer:
		changes += eachChange(t, v.Elem(), path, check)
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			changes += eachChange(t, v.Index(i), path, check)
		}
	}
	return changes
}

// fullReport is a report in which every field of every report type holds
// its own non-zero value.
func fullReport(t testing.TB) *RunReport {
	t.Helper()
	var full RunReport
	n := 0
	fillDistinct(t, reflect.ValueOf(&full).Elem(), &n)
	return &full
}

// wideReport is fullReport with eight flows, eight queues and three
// violations, every flow with a Stream: a report recycled from it decodes
// the real encodings inside its own storage, so stale fields meet the
// decoder instead of fresh allocations.
func wideReport(t testing.TB) *RunReport {
	r := fullReport(t)
	for len(r.Flows) < 8 {
		r.Flows = append(r.Flows, r.Flows...)
		r.Queues = append(r.Queues, r.Queues...)
	}
	r.Violations = append(r.Violations, "queue over its cap")
	// The doubling shares Streams and PathMbps between flows; a trip
	// through the codec gives every flow its own, as a decode would.
	wide, err := decodeReport(AppendReport(nil, r))
	if err != nil {
		t.Fatal(err)
	}
	return wide
}

// decodeReport is DecodeReportInto a new report.
func decodeReport(data []byte) (*RunReport, error) {
	r := new(RunReport)
	if err := DecodeReportInto(r, data); err != nil {
		return nil, err
	}
	return r, nil
}

// roundTrip encodes, decodes and checks the encoding is canonical.
func roundTrip(t *testing.T, rep *RunReport) *RunReport {
	t.Helper()
	enc := AppendReport(nil, rep)
	got, err := decodeReport(enc)
	if err != nil {
		t.Fatalf("decoding a fresh encoding: %v", err)
	}
	if again := AppendReport(nil, got); !bytes.Equal(again, enc) {
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
	if got := roundTrip(t, &RunReport{}); !reflect.DeepEqual(got, &RunReport{}) {
		t.Errorf("round trip changed the zero report: %+v", got)
	}
}

// isIdentity reports whether the report field at path is in AppendReport's
// identity section: the table Digest is held to.
func isIdentity(path string) bool {
	switch path {
	case "Flows", "Flows.Name", "Flows.GoodputBytes",
		"Flows.Stream", "Flows.Stream.InOrderBytes", "Flows.Stream.DeliveredBytes", "Flows.Stream.Done",
		"Queues", "Queues.Link":
		return true
	}
	return strings.HasPrefix(path, "Queues.Total.")
}

// TestDigestCoversIdentityFields changes every report field in turn: an
// identity field must change Traffic alone, Processed must change
// Processed alone, and a derived field must change neither. Stats, the
// run's work counters, is derived, every field of it.
func TestDigestCoversIdentityFields(t *testing.T) {
	rep := fullReport(t)
	base := rep.Digest()
	stats := 0
	eachChange(t, reflect.ValueOf(rep).Elem(), "", func(path string) {
		if strings.HasPrefix(path, "Stats.") {
			stats++
		}
		d := rep.Digest()
		switch {
		case path == "Processed":
			if d.Processed == base.Processed || d.Traffic != base.Traffic {
				t.Errorf("changing Processed: %+v, from %+v", d, base)
			}
		case isIdentity(path):
			if d.Traffic == base.Traffic || d.Processed != base.Processed {
				t.Errorf("changing identity field %s did not change Traffic alone", path)
			}
		case d != base:
			t.Errorf("changing derived field %s changed the digest", path)
		}
	})
	if rep.Digest() != base {
		t.Fatal("the walk did not restore the report")
	}
	if want := 5 + int(sim.NumKinds); stats != want {
		t.Errorf("the walk changed %d counts of Stats, want %d", stats, want)
	}

	// Flow names are length-prefixed: one flow called "a=1;b" is not flows
	// a and b.
	split := &RunReport{Flows: []FlowReport{{Name: "a", GoodputBytes: 1}, {Name: "b", GoodputBytes: 2}}}
	joined := &RunReport{Flows: []FlowReport{{Name: "a=1;b", GoodputBytes: 2}}}
	if split.Digest() == joined.Digest() {
		t.Error("flows a (1 B) and b (2 B) digest like one flow a=1;b (2 B)")
	}
}

// TestDigestAllocs locks what fingerprinting a steady_bulk-shaped report
// (ten flows over two links) allocates.
func TestDigestAllocs(t *testing.T) {
	rep, err := Run(context.Background(), &Spec{
		Name: "steady", Seed: 1, WarmupSec: 0.5, DurationSec: 1,
		Links: []LinkSpec{{RateMbps: 50}, {RateMbps: 50, Queue: QueueDropTail, LossPct: 0.05}},
		Paths: []PathSpec{{Links: []int{0}, DelayMs: 20}, {Links: []int{1}, DelayMs: 40}},
		Flows: []FlowSpec{
			{Name: "olia", Algorithm: "olia", Paths: []int{0, 1}, Count: 2, StartJitter: true},
			{Name: "lia", Algorithm: "lia", Paths: []int{0, 1}, Count: 2, StartJitter: true},
			{Name: "tcp0", Algorithm: AlgoTCP, Paths: []int{0}, Count: 3, StartJitter: true},
			{Name: "tcp1", Algorithm: AlgoTCP, Paths: []int{1}, Count: 3, StartJitter: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Flows) != 10 || len(rep.Queues) != 2 {
		t.Fatalf("%d flows and %d queues, want 10 and 2", len(rep.Flows), len(rep.Queues))
	}
	var d Digest
	if allocs := testing.AllocsPerRun(100, func() { d = rep.Digest() }); allocs > 1 {
		t.Errorf("Digest of a 10-flow report: %v allocations, want at most 1", allocs)
	}
	if d != rep.Digest() {
		t.Error("Digest is not a function of the report")
	}
}

// TestAppendSpecCoversEveryField is what keeps AppendSpec in step with the
// spec types: every field of Spec, LinkSpec, PathSpec, FlowSpec,
// TimelineEvent, LinkSetpoint and PathFlap is given its own value, then
// changed one at a time, and each change must change the encoding. A field
// AppendSpec does not encode would let two different runs share one cache
// entry and one lock line.
func TestAppendSpecCoversEveryField(t *testing.T) {
	var sp Spec
	n := 0
	fillDistinct(t, reflect.ValueOf(&sp).Elem(), &n)
	encode := func() []byte {
		b, err := AppendSpec(nil, &sp)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	base := encode()
	changes := eachChange(t, reflect.ValueOf(&sp).Elem(), "", func(path string) {
		if bytes.Equal(encode(), base) {
			t.Errorf("changing %s did not change the encoding", path)
		}
	})
	if !bytes.Equal(encode(), base) {
		t.Fatal("the walk did not restore the spec")
	}
	if changes < 50 {
		t.Errorf("%d changes tried, want every field of every spec type", changes)
	}
}

// TestAppendSpecRevPresence: a path without a reverse route, one with an
// empty one (which Validate rejects) and one with a route each encode
// differently, so the shared return link and a route of the path's own
// never share a cache entry.
func TestAppendSpecRevPresence(t *testing.T) {
	seen := map[string][]int{}
	for _, rev := range [][]int{nil, {}, {0}, {1}, {0, 1}} {
		sp := twoPathSpec()
		sp.Paths[0].Rev = rev
		b, err := AppendSpec(nil, sp)
		if err != nil {
			t.Fatal(err)
		}
		if prev, ok := seen[string(b)]; ok {
			t.Errorf("reverse routes %#v and %#v encode alike", prev, rev)
		}
		seen[string(b)] = rev
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
		rep := &RunReport{Flows: []FlowReport{{
			GoodputMbps: v,
			PathMbps:    []float64{v},
			Stream:      &StreamReport{CompletionSec: v},
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
	rep := &RunReport{
		Seed:      math.MinInt64,
		Processed: math.MaxUint64,
		Flows:     []FlowReport{{GoodputBytes: math.MaxInt64, SentPkts: -1, Timeouts: math.MinInt64}},
		Queues:    []QueueReport{{Link: -1, FinalLen: math.MaxInt, MaxLen: math.MinInt}},
	}
	if got := roundTrip(t, rep); !reflect.DeepEqual(got, rep) {
		t.Errorf("round trip changed the report:\n got %+v\nwant %+v", got, rep)
	}
}

// realReports runs two short scenarios, long-lived flows and a finite
// scheduled transfer, and adds the latter again carrying violations.
func realReports(t testing.TB) []*RunReport {
	t.Helper()
	var reps []*RunReport
	for _, sp := range []*Spec{twoPathSpec(), schedStreamSpec("minrtt", 1), featureSpec()} {
		rep, err := Run(context.Background(), sp)
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		reps = append(reps, rep)
	}
	finite := reps[1]
	if finite.Flows[0].Stream == nil {
		t.Fatal("finite transfer reported no stream")
	}
	flagged := *finite
	flagged.Violations = []string{"link 0: queue 12 exceeds cap 10", "flow user-0: cwnd 0 < 1"}
	return append(reps, &flagged)
}

func TestCodecRealReports(t *testing.T) {
	for _, rep := range realReports(t) {
		if got := roundTrip(t, rep); !reflect.DeepEqual(got, rep) {
			t.Errorf("%s: round trip changed the report:\n got %+v\nwant %+v", rep.Name, got, rep)
		}
	}
}

// TestDecodeRejects: an encoding is all of its bytes and no more.
func TestDecodeRejects(t *testing.T) {
	enc := AppendReport(nil, fullReport(t))
	for cut := 0; cut < len(enc); cut++ {
		if _, err := decodeReport(enc[:cut]); err == nil {
			t.Errorf("the %d-byte prefix of a %d-byte encoding decoded", cut, len(enc))
		}
	}
	if _, err := decodeReport(append(enc[:len(enc):len(enc)], 0)); err != errTrailing {
		t.Errorf("encoding plus one byte: %v, want %v", err, errTrailing)
	}

	// A completion time of 0 is encoded as absent, never as a present 0.
	done := AppendReport(nil, &RunReport{Flows: []FlowReport{{CompletionSec: 1}}})
	one := binary.LittleEndian.AppendUint64(nil, math.Float64bits(1))
	at := bytes.Index(done, one)
	for _, zero := range []float64{0, math.Copysign(0, -1)} {
		bad := slices.Concat(done[:at], binary.LittleEndian.AppendUint64(nil, math.Float64bits(zero)), done[at+8:])
		if _, err := decodeReport(bad); err != errCanonical {
			t.Errorf("a present completion of %v: %v, want %v", zero, err, errCanonical)
		}
	}

	// The same value, padded or out of range, is not the same encoding.
	// Flows, Queues, Processed, Name, Seed, Violations, Trace, then Stats'
	// five counts and its events by kind.
	empty := make([]byte, 7+5+sim.NumKinds)
	if _, err := decodeReport(empty); err != nil {
		t.Fatalf("the zero report: %v", err)
	}
	for name, tc := range map[string]struct {
		data []byte
		want error
	}{
		"padded varint":    {[]byte{0x80, 0, 0, 0, 0, 0, 0}, errCanonical},
		"65-bit varint":    {append(bytes.Repeat([]byte{0xff}, 9), 2, 0, 0, 0, 0, 0), errTruncated},
		"bool of 2":        {append([]byte{1, 0, 0, 2}, make([]byte, 16)...), errCanonical},
		"flows past end":   {[]byte{1, 0, 0, 0, 0, 0}, errLength},
		"name past end":    {[]byte{0, 0, 0, 7, 'x', 0, 0}, errLength},
		"strings past end": {[]byte{0, 0, 0, 0, 0, 1}, errLength},
		"trace bool of 2":  {[]byte{0, 0, 0, 0, 0, 0, 2}, errCanonical},
		"samples past end": {[]byte{0, 0, 0, 0, 0, 0, 1, 2, 0}, errLength},
		"column past end":  {[]byte{0, 0, 0, 0, 0, 0, 1, 0, 1, 1}, errLength},
	} {
		if _, err := decodeReport(tc.data); err != tc.want {
			t.Errorf("%s: %v, want %v", name, err, tc.want)
		}
	}
}

// TestDecodeHugeLengthDoesNotAllocate: a length prefix is checked against
// the bytes that remain before it sizes anything, wherever it stands.
func TestDecodeHugeLengthDoesNotAllocate(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<40)
	for name, prefix := range map[string][]byte{
		"flows":      {},
		"queues":     {0},
		"name":       {0, 0, 0},
		"path_mbps":  {1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		"violations": {0, 0, 0, 0, 0},
	} {
		enc := append(append([]byte{}, prefix...), huge...)
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
// across encodings, and every decode equals the fresh one.
func TestDecodeConcurrent(t *testing.T) {
	reports := append(realReports(t), fullReport(t))
	encs := make([][]byte, len(reports))
	for i, rep := range reports {
		encs[i] = AppendReport(nil, rep)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep := new(RunReport)
			for k := 0; k < 200; k++ {
				i := (w + k) % len(encs)
				if err := DecodeReportInto(rep, encs[i]); err != nil || !reflect.DeepEqual(rep, reports[i]) {
					t.Errorf("worker %d, report %d: %v\n got %+v\nwant %+v", w, i, err, rep, reports[i])
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
		f.Add(AppendReport(nil, rep))
	}
	f.Add(AppendReport(nil, &RunReport{}))
	priors := append(reals, wideReport(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := decodeReport(data)
		for _, prior := range priors {
			// A copy, so the decode cannot write into the seed corpus.
			recycled, cerr := decodeReport(AppendReport(nil, prior))
			if cerr != nil {
				t.Fatal(cerr)
			}
			if rerr := DecodeReportInto(recycled, data); rerr != err {
				t.Fatalf("decoding into %s's report: %v, fresh: %v", prior.Name, rerr, err)
			}
			if err == nil && !reflect.DeepEqual(recycled, rep) {
				t.Fatalf("decoding into %s's report:\n got %+v\nwant %+v", prior.Name, recycled, rep)
			}
		}
		if err != nil {
			return
		}
		if again := AppendReport(nil, rep); !bytes.Equal(again, data) {
			t.Fatalf("decoded bytes re-encode differently:\n%x\n%x", data, again)
		}
	})
}

// FuzzDecodeVarint: the decoder's one varint read, from any cursor, agrees
// with binary.Uvarint on the bytes after it. Where binary.Uvarint reads a
// value, so does the decoder, with the same length, unless the encoding is
// several bytes ending in 0, a padded smaller value, which is
// errCanonical. Where binary.Uvarint fails, short or more than 64 bits, the
// decoder fails with errTruncated. A failed read returns 0 and leaves the
// cursor at the end.
func FuzzDecodeVarint(f *testing.F) {
	for _, data := range [][]byte{
		{},
		{0x80},
		{0x80, 0x00},
		{0x7f},
		binary.AppendUvarint(nil, math.MaxUint64),    // the largest, ten bytes
		append(bytes.Repeat([]byte{0xff}, 9), 0x02),  // ten bytes holding a 65th bit
		append(bytes.Repeat([]byte{0x80}, 10), 0x01), // eleven bytes
	} {
		f.Add(uint8(0), data)
		f.Add(uint8(2), append([]byte{0x81, 0x01}, data...))
	}
	f.Fuzz(func(t *testing.T, at uint8, data []byte) {
		start := int(at) % (len(data) + 1)
		d := decoder{b: data, i: start}
		got := d.uvarint()
		want, n := binary.Uvarint(data[start:])
		switch {
		case n <= 0:
			if d.err != errTruncated {
				t.Fatalf("%x at %d: binary.Uvarint fails (%d), decoder error %v, want %v", data, start, n, d.err, errTruncated)
			}
		case n > 1 && data[start+n-1] == 0:
			if d.err != errCanonical {
				t.Fatalf("%x at %d: padded %d-byte varint, decoder error %v, want %v", data, start, n, d.err, errCanonical)
			}
		default:
			if d.err != nil || got != want || d.i != start+n {
				t.Fatalf("%x at %d: decoder read %d to %d (%v), binary.Uvarint %d in %d bytes", data, start, got, d.i, d.err, want, n)
			}
			return
		}
		if got != 0 || d.i != len(data) {
			t.Fatalf("%x at %d: a failed read returned %d and left the cursor at %d of %d", data, start, got, d.i, len(data))
		}
	})
}

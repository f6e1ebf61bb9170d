package mptcp

import (
	"testing"

	"mptcpsim/internal/core"
)

// decodeSchedView decodes a synthetic SchedView: a subflow count of 1–8,
// then four bytes per subflow — SRTT in ms (0 is unmeasured), the window
// in quarter packets, in-flight bytes in half packets, and up when odd.
// Every value is exact in float64, so headroom has one answer however it
// is computed. rest is what the view left of data; ok is false when data
// is too short for the view.
func decodeSchedView(data []byte) (v *fakeView, rest []byte, ok bool) {
	if len(data) == 0 {
		return nil, nil, false
	}
	n := 1 + int(data[0]%8)
	data = data[1:]
	if len(data) < 4*n {
		return nil, nil, false
	}
	v = &fakeView{}
	for i := 0; i < n; i++ {
		b := data[4*i : 4*i+4]
		v.srtt = append(v.srtt, float64(b[0])/1000)
		v.cwnd = append(v.cwnd, float64(b[1])/4)
		v.inflight = append(v.inflight, int64(b[2])*750)
		v.up = append(v.up, b[3]%2 == 1)
	}
	return v, data[4*n:], true
}

// effSRTT is a subflow's SRTT as the schedulers rank it: 0 reads as
// core.DefaultRTT.
func (f *fakeView) effSRTT(i int) float64 {
	if f.srtt[i] == 0 {
		return core.DefaultRTT
	}
	return f.srtt[i]
}

// minRTTModel is minrtt's obligation: the up subflow with room for one
// more segment whose SRTT ranks lowest, ties to the lower index, or -1.
func minRTTModel(f *fakeView) int {
	best := -1
	for i := range f.up {
		if !f.up[i] || float64(f.inflight[i]) > (f.cwnd[i]-1)*float64(f.MSS()) {
			continue
		}
		if best < 0 || f.effSRTT(i) < f.effSRTT(best) {
			best = i
		}
	}
	return best
}

// permuted relabels f: subflow i of f is subflow perm[i] of the result.
func (f *fakeView) permuted(perm []int) *fakeView {
	n := len(perm)
	g := &fakeView{srtt: make([]float64, n), cwnd: make([]float64, n), inflight: make([]int64, n), up: make([]bool, n)}
	for i, p := range perm {
		g.srtt[p], g.cwnd[p], g.inflight[p], g.up[p] = f.srtt[i], f.cwnd[i], f.inflight[i], f.up[i]
	}
	return g
}

// FuzzSchedulerPick checks every registered scheduler's decisions on a
// synthetic view, for every request: each subflow asking and ReinjectPick.
//   - A pick that is not a hold names an up subflow in range.
//   - minrtt picks minRTTModel's subflow, or holds when it has none.
//   - roundrobin grants each of n always-ready subflows k times in n·k
//     grants, whatever order the subflows ask in.
//   - The stateless schedulers (all but roundrobin) are equivariant under
//     relabelling the subflows when their ranked SRTTs are distinct.
func FuzzSchedulerPick(f *testing.F) {
	f.Add([]byte{1, 20, 40, 0, 1, 80, 40, 0, 1, 7, 0, 0, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, rest, ok := decodeSchedView(data)
		if !ok {
			return
		}
		n := v.NumFlows()
		at := func(j int) int {
			if len(rest) == 0 {
				return 0
			}
			return int(rest[j%len(rest)])
		}
		remaining := int64(1) << (at(0) % 40)
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		for i := n - 1; i > 0; i-- {
			j := at(1+i) % (i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		relabel := func(i int) int {
			if i < 0 {
				return i
			}
			return perm[i]
		}
		distinct := true
		for i := 0; i < n; i++ {
			for j := 0; j < i; j++ {
				distinct = distinct && v.effSRTT(i) != v.effSRTT(j)
			}
		}
		pv := v.permuted(perm)

		for _, name := range Schedulers() {
			sc, _ := NewScheduler(name)
			twin, _ := NewScheduler(name)
			for want := ReinjectPick; want < n; want++ {
				got := sc.Pick(v, want, remaining)
				if got >= 0 && (got >= n || !v.up[got]) {
					t.Fatalf("%s: Pick(want %d) = %d, not an up subflow of %d (up %v)", name, want, got, n, v.up)
				}
				if name == "minrtt" && max(got, -1) != minRTTModel(v) {
					t.Fatalf("minrtt: Pick(want %d) = %d, want %d (srtt %v cwnd %v inflight %v up %v)",
						want, got, minRTTModel(v), v.srtt, v.cwnd, v.inflight, v.up)
				}
				if name != "roundrobin" && distinct {
					if pgot := twin.Pick(pv, relabel(want), remaining); max(pgot, -1) != relabel(max(got, -1)) {
						t.Fatalf("%s: Pick(want %d) = %d, but relabelled by %v Pick(want %d) = %d", name, want, got, perm, relabel(want), pgot)
					}
				}
			}
		}

		// Round-robin fairness over n always-ready subflows: the wants come
		// from the input; past a bound the stream's reinjection request,
		// which the rotation always grants, finishes the count.
		ready := &fakeView{}
		for i := 0; i < n; i++ {
			ready.srtt = append(ready.srtt, v.srtt[i])
			ready.cwnd = append(ready.cwnd, 64)
			ready.inflight = append(ready.inflight, 0)
			ready.up = append(ready.up, true)
		}
		rr, _ := NewScheduler("roundrobin")
		k := 1 + at(1)%4
		grants := make([]int, n)
		for j, granted := 0, 0; granted < n*k; j++ {
			want := ReinjectPick
			if j < 8*n*k {
				want = at(j)%(n+1) - 1
			}
			got := rr.Pick(ready, want, remaining)
			if got < 0 {
				continue
			}
			if got >= n || (want >= 0 && got != want) {
				t.Fatalf("roundrobin: Pick(want %d) = %d over %d ready subflows", want, got, n)
			}
			grants[got]++
			granted++
		}
		for i, g := range grants {
			if g != k {
				t.Fatalf("roundrobin: %d grants over %d ready subflows gave subflow %d %d, want %d each (%v)", n*k, n, i, g, k, grants)
			}
		}
	})
}

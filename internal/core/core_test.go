package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// fakeView is a static ConnView for unit-testing controllers.
type fakeView struct {
	w   []float64
	rtt []float64
	mss int
}

func (f *fakeView) NumFlows() int          { return len(f.w) }
func (f *fakeView) CwndPkts(i int) float64 { return f.w[i] }
func (f *fakeView) SRTT(i int) float64     { return f.rtt[i] }
func (f *fakeView) MSS() int {
	if f.mss == 0 {
		return 1500
	}
	return f.mss
}

func TestUncoupledIsReno(t *testing.T) {
	v := &fakeView{w: []float64{10, 20}, rtt: []float64{0.1, 0.1}}
	u := NewUncoupled()
	if got := u.Acked(v, 0, 1500, true); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("increase %v, want 1/w = 0.1", got)
	}
	if got := u.Acked(v, 1, 1500, true); math.Abs(got-0.05) > 1e-12 {
		t.Fatalf("increase %v, want 0.05", got)
	}
	if got := u.Acked(v, 0, 1500, false); got != 0 {
		t.Fatalf("slow-start increase %v, want 0", got)
	}
	if u.Name() != "uncoupled" {
		t.Fatal("name")
	}
	u.Lost(v, 0) // must not panic
}

func TestLIASinglePathReducesToReno(t *testing.T) {
	v := &fakeView{w: []float64{10}, rtt: []float64{0.2}}
	l := NewLIA()
	got := l.Acked(v, 0, 1500, true)
	// (w/rtt²)/(w/rtt)² = 1/w
	if math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("single-path LIA %v, want 0.1", got)
	}
}

func TestLIAEqualPathsIncrease(t *testing.T) {
	// Two identical paths, w=10, rtt=0.1: coupled term is
	// (10/0.01)/(200)² = 1000/40000 = 0.025 < 1/w = 0.1.
	v := &fakeView{w: []float64{10, 10}, rtt: []float64{0.1, 0.1}}
	l := NewLIA()
	got := l.Acked(v, 0, 1500, true)
	if math.Abs(got-0.025) > 1e-12 {
		t.Fatalf("LIA increase %v, want 0.025", got)
	}
}

func TestLIAMinClampsToReno(t *testing.T) {
	// A tiny window beside a large one: the coupled term would exceed 1/w
	// on the large-window path? Construct: w = [100, 0.5], rtt = [0.1, 0.1].
	// max term = 100/0.01 = 10000; denom = (1005)² ≈ 1.01e6; inc ≈ 0.0099.
	// For the small path 1/w = 2 > 0.0099 (no clamp). For clamping, make the
	// small window the only one: w=[0.4], coupled term = 1/w? single path
	// always equals 1/w. Instead verify inc never exceeds 1/w on any path
	// via the property test below; here check a concrete asymmetric case.
	v := &fakeView{w: []float64{1, 30}, rtt: []float64{0.5, 0.01}}
	l := NewLIA()
	inc := l.Acked(v, 0, 1500, true)
	if inc > 1.0+1e-12 {
		t.Fatalf("LIA exceeded Reno on path 0: %v", inc)
	}
}

// Property: LIA's per-packet increase never exceeds 1/w_r (RFC 6356 goal 2),
// and is always nonnegative.
func TestPropertyLIABounded(t *testing.T) {
	f := func(ws, rtts []uint16) bool {
		n := len(ws)
		if len(rtts) < n {
			n = len(rtts)
		}
		if n == 0 {
			return true
		}
		if n > 8 {
			n = 8
		}
		v := &fakeView{}
		for i := 0; i < n; i++ {
			v.w = append(v.w, 1+float64(ws[i]%500))
			v.rtt = append(v.rtt, 0.01+float64(rtts[i]%1000)/1000)
		}
		l := NewLIA()
		for i := 0; i < n; i++ {
			inc := l.Acked(v, i, 1500, true)
			if inc < 0 || inc > 1/v.w[i]+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

func TestOLIASinglePathReducesToReno(t *testing.T) {
	v := &fakeView{w: []float64{10}, rtt: []float64{0.2}}
	o := NewOLIA()
	o.Acked(v, 0, 1500, false) // seed ℓ2
	got := o.Acked(v, 0, 1500, true)
	if math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("single-path OLIA %v, want 1/w = 0.1", got)
	}
	if a := o.Alpha(0); a != 0 {
		t.Fatalf("single-path alpha %v, want 0", a)
	}
}

func TestOLIAEllAccounting(t *testing.T) {
	v := &fakeView{w: []float64{10, 10}, rtt: []float64{0.1, 0.1}}
	o := NewOLIA()
	o.Acked(v, 0, 3000, false)
	if o.Ell(0) != 3000 {
		t.Fatalf("ell %v, want 3000 (ℓ2)", o.Ell(0))
	}
	o.Lost(v, 0)
	if o.Ell(0) != 3000 {
		t.Fatalf("ell after loss %v, want 3000 (ℓ1 keeps the last epoch)", o.Ell(0))
	}
	o.Acked(v, 0, 1500, false)
	if o.Ell(0) != 3000 {
		t.Fatalf("ell %v: max(ℓ1=3000, ℓ2=1500) = 3000", o.Ell(0))
	}
	o.Acked(v, 0, 3000, false)
	if o.Ell(0) != 4500 {
		t.Fatalf("ell %v: ℓ2 grew past ℓ1", o.Ell(0))
	}
	// A second loss shifts the epoch.
	o.Lost(v, 0)
	o.Acked(v, 0, 1500, false)
	if o.Ell(0) != 4500 {
		t.Fatalf("ell %v, want 4500", o.Ell(0))
	}
}

// Eq. 6, case B\M nonempty: the best-but-small path gets +1/(|Ru|·|B\M|),
// max-window paths get −1/(|Ru|·|M|).
func TestOLIAAlphaRedistributes(t *testing.T) {
	v := &fakeView{w: []float64{20, 1}, rtt: []float64{0.1, 0.1}}
	o := NewOLIA()
	// Path 1 is presumably best (larger ℓ) but has the small window.
	o.Acked(v, 0, 1500, false)  // ℓ0 = 1500
	o.Acked(v, 1, 15000, false) // ℓ1 = 15000
	o.Acked(v, 0, 1500, true)   // triggers α computation
	if a := o.Alpha(1); math.Abs(a-0.5) > 1e-12 {
		t.Fatalf("alpha best-small %v, want (1/|Ru|)/|B\\M| = 0.5", a)
	}
	if a := o.Alpha(0); math.Abs(a+0.5) > 1e-12 {
		t.Fatalf("alpha max-window %v, want −(1/|Ru|)/|M| = −0.5", a)
	}
}

// Eq. 6, case B\M empty: all α are zero.
func TestOLIAAlphaZeroWhenBestIsLargest(t *testing.T) {
	v := &fakeView{w: []float64{20, 1}, rtt: []float64{0.1, 0.1}}
	o := NewOLIA()
	o.Acked(v, 0, 15000, false) // path 0: best AND largest window
	o.Acked(v, 1, 1500, false)
	o.Acked(v, 0, 1500, true)
	if a := o.Alpha(0); a != 0 {
		t.Fatalf("alpha %v, want 0 (B\\M = ∅)", a)
	}
	if a := o.Alpha(1); a != 0 {
		t.Fatalf("alpha %v, want 0", a)
	}
}

// Identical paths: both in M and B, α = 0, increase equals the Kelly-Voice
// term: w/rtt²/(2w/rtt)² = 1/(4w).
func TestOLIAEqualPathsIncrease(t *testing.T) {
	v := &fakeView{w: []float64{10, 10}, rtt: []float64{0.1, 0.1}}
	o := NewOLIA()
	o.Acked(v, 0, 1500, false)
	o.Acked(v, 1, 1500, false)
	got := o.Acked(v, 0, 1500, true)
	want := 1.0 / 40
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("OLIA increase %v, want %v", got, want)
	}
}

// OLIA compensates for RTT: with equal loss history, the path metric
// ℓ/rtt² prefers the low-RTT path.
func TestOLIARTTCompensationInBestSet(t *testing.T) {
	v := &fakeView{w: []float64{10, 1}, rtt: []float64{0.2, 0.05}}
	o := NewOLIA()
	o.Acked(v, 0, 6000, false)
	o.Acked(v, 1, 6000, false)
	o.Acked(v, 0, 1500, true)
	// metric0 = 6000/0.04 = 150k; metric1 = 6000/0.0025 = 2.4M → B = {1},
	// M = {0} → α1 = +1/2, α0 = −1/2.
	if a := o.Alpha(1); math.Abs(a-0.5) > 1e-12 {
		t.Fatalf("alpha %v, want 0.5", a)
	}
}

// Property: Σ_r α_r = 0 for any state (the redistribution is conservative).
func TestPropertyOLIAAlphaSumsToZero(t *testing.T) {
	f := func(ws, ells []uint16, rtts []uint8) bool {
		n := len(ws)
		for _, l := range [][]int{{len(ells)}, {len(rtts)}} {
			if l[0] < n {
				n = l[0]
			}
		}
		if n == 0 {
			return true
		}
		if n > 8 {
			n = 8
		}
		v := &fakeView{}
		o := NewOLIA()
		for i := 0; i < n; i++ {
			v.w = append(v.w, 1+float64(ws[i]%300))
			v.rtt = append(v.rtt, 0.01+float64(rtts[i])/500)
		}
		for i := 0; i < n; i++ {
			o.Acked(v, i, int(ells[i])*10, false)
		}
		o.Acked(v, 0, 1500, true)
		var sum float64
		for i := 0; i < n; i++ {
			sum += o.Alpha(i)
		}
		return math.Abs(sum) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Fatal(err)
	}
}

// Property: OLIA's total per-packet increase obeys |inc| ≤ 1/w + 1 and the
// first (Kelly-Voice) term alone never exceeds 1/w.
func TestPropertyOLIAIncreaseBounded(t *testing.T) {
	f := func(ws, ells []uint16, rtts []uint8) bool {
		n := min(len(ws), min(len(ells), len(rtts)))
		if n == 0 {
			return true
		}
		if n > 8 {
			n = 8
		}
		v := &fakeView{}
		o := NewOLIA()
		for i := 0; i < n; i++ {
			v.w = append(v.w, 1+float64(ws[i]%300))
			v.rtt = append(v.rtt, 0.01+float64(rtts[i])/500)
		}
		for i := 0; i < n; i++ {
			o.Acked(v, i, int(ells[i])*10+1, false)
		}
		for i := 0; i < n; i++ {
			inc := o.Acked(v, i, 1500, true) - 1500.0/1500.0*0 // per packet
			// α ∈ [−1, 1]/|Ru| so |inc| ≤ 1/w + 1/w = 2/w... conservative:
			if math.Abs(inc) > 2/v.w[i]+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

func TestFullyCoupledIncreaseAndReduce(t *testing.T) {
	v := &fakeView{w: []float64{10, 30}, rtt: []float64{0.1, 0.1}}
	f := NewFullyCoupled()
	got := f.Acked(v, 0, 1500, true)
	if math.Abs(got-1.0/40) > 1e-12 {
		t.Fatalf("increase %v, want 1/w_total = 0.025", got)
	}
	f.Lost(v, 1)
	// Total window 40 pkts = 60000 bytes; losing subflow at 45000 bytes
	// reduces by 30000 to 15000.
	if got := f.ReduceTo(45000); math.Abs(got-15000) > 1e-9 {
		t.Fatalf("ReduceTo %v, want 15000", got)
	}
	// Reduction never goes negative.
	if got := f.ReduceTo(10000); got != 0 {
		t.Fatalf("ReduceTo %v, want 0", got)
	}
	if f.Name() != "fullycoupled" {
		t.Fatal("name")
	}
}

func TestFullyCoupledReduceWithoutView(t *testing.T) {
	f := NewFullyCoupled()
	if got := f.ReduceTo(3000); got != 1500 {
		t.Fatalf("fallback ReduceTo %v, want cwnd/2", got)
	}
}

// TestControllersZeroAlloc locks the per-ACK and per-loss paths of every
// controller at zero allocations once per-subflow state is sized: tcp calls
// them once per ACK, so one make here is tens of thousands per scenario.
func TestControllersZeroAlloc(t *testing.T) {
	ctrls := []Controller{NewOLIA(), NewLIA(), NewUncoupled(), NewFullyCoupled()}
	for _, nf := range []int{2, 8} {
		v := &fakeView{w: make([]float64, nf), rtt: make([]float64, nf)}
		for p := range v.w {
			v.w[p] = float64(10 + 3*p)
			v.rtt[p] = 0.01 * float64(1+p)
		}
		for _, c := range ctrls {
			c.Acked(v, nf-1, 1500, true) // size per-subflow state
			var sink float64
			allocs := testing.AllocsPerRun(200, func() {
				for i := 0; i < nf; i++ {
					sink += c.Acked(v, i, 1500, true)
					sink += c.Acked(v, i, 1500, false)
				}
				c.Lost(v, nf/2)
			})
			if allocs != 0 {
				t.Errorf("%s with %d subflows allocates %.1f per round of ACKs and a loss, want 0", c.Name(), nf, allocs)
			}
		}
	}
}

package harness

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"mptcpsim/internal/scenario"
	"mptcpsim/internal/sim"
)

// conformSmokeConfig is the configuration `mptcpsim conform -smoke` runs
// the conformance table at: 3 seeds from 1, 5 s warm-ups, 20 s windows.
func conformSmokeConfig() Config {
	cfg := DefaultConfig()
	cfg.Warmup, cfg.Duration = 5*sim.Second, 20*sim.Second
	cfg.Seeds, cfg.BaseSeed = 3, 1
	return cfg
}

// collectConformance collects the conformance table at cfg.
func collectConformance(t *testing.T, cfg Config) *Result {
	t.Helper()
	r, err := Get("conformance").CollectResult(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(conformanceTopos)*len(conformanceAlgos) {
		t.Fatalf("%d cases, want %d", len(r.Rows), len(conformanceTopos)*len(conformanceAlgos))
	}
	return r
}

// TestConformanceSuite is the cross-model acceptance gate: on every ≥3-path
// case, the packet-level per-path goodput shares of the OLIA, LIA and
// uncoupled multipath flow must match the fluid-model equilibrium within
// shareTolerance. Run at the smoke scale (20 s windows); `make conform`
// runs the full 30 s suite. A packet run that violates an invariant fails
// the collection.
func TestConformanceSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("conformance simulations skipped in -short")
	}
	r := collectConformance(t, conformSmokeConfig())
	for _, c := range r.Rows {
		name := c[0].Text + "/" + c[1].Text
		n := c[confPaths].Int()
		if c[confConverged].Int() != 1 {
			t.Errorf("%s: fluid equilibrium did not converge", name)
		}
		if d := c[confDiff].Value; d > shareTolerance {
			t.Errorf("%s: share deviation %.3f above tolerance %.2f (sim %v vs model %v)", name, d, shareTolerance,
				c[confSimShare:confSimShare+n], c[confModelShare:confModelShare+n])
		}
		if c[confVerdict].Text != "pass" {
			t.Errorf("%s: verdict %q", name, c[confVerdict].Text)
		}
	}
}

// TestConformanceSharesWellFormed checks structural sanity cheaply (4 s
// windows): on both sides each case's shares over its own paths are a
// distribution, its shares past them are 0, and its totals are positive.
func TestConformanceSharesWellFormed(t *testing.T) {
	if testing.Short() {
		t.Skip("conformance simulations skipped in -short")
	}
	cfg := conformSmokeConfig()
	cfg.Duration = 4 * sim.Second
	r := collectConformance(t, cfg)
	for _, c := range r.Rows {
		n := c[confPaths].Int()
		for _, side := range []int{confSimShare, confModelShare} {
			shares := c[side : side+conformancePaths]
			var sum float64
			for k, s := range shares {
				if s.Value < 0 || s.Value > 1 || (k >= n && s.Value != 0) {
					t.Fatalf("%s/%s: shares %v over %d paths", c[0].Text, c[1].Text, shares, n)
				}
				sum += s.Value
			}
			if math.Abs(sum-1) > 1e-6 {
				t.Fatalf("%s/%s: shares %v sum to %v", c[0].Text, c[1].Text, shares, sum)
			}
		}
		if c[confSimShare-1].Value <= 0 || c[confModelShare-1].Value <= 0 {
			t.Fatalf("%s/%s: non-positive totals: %v", c[0].Text, c[1].Text, c)
		}
	}
}

// TestConformanceSpecs pins the SHA-256 of scenario.AppendSpec for the
// table's 27 jobs at the smoke configuration, rows in order and seeds
// inner. The sums are those of the networks the suite ran before it was a
// harness table, so its packet runs are the same networks.
func TestConformanceSpecs(t *testing.T) {
	want := []string{
		"be692747f6dab0da8707ac60fc56ad2188dc99d16989c9ad3ede426d6d6e5b51", // tier3/olia seed 1
		"70e31626883d9406d602cab5a2214f16aa709729f3233e3ff2b27216b0f94a24", // tier3/olia seed 2
		"494e5e68bd6bdbcc812951303e334313202fa5214a69e7fd158ea8b459565659", // tier3/olia seed 3
		"9e85d6a09d5c47e975fc234c17d11578cb7a0c1565709f27c0e597988fbe9cb3", // tier3/lia seed 1
		"fc297120b52164faf22d2e322807ff159fb818ec63379a74aa34dacc0fcdbb0b", // tier3/lia seed 2
		"ebd3d2db7893e82c79ff8a642b24106b44e07c1f1cda95d746bfc3b7a296c2d0", // tier3/lia seed 3
		"4a7c3ba815fc4532503904ca9292bdbaf9fd6fd3753e54f7d4bbd1874c28f05c", // tier3/uncoupled seed 1
		"d0fa603f1dd38f19754f5da3bd4bfbc1d69c4c7806ad798167fffb7e46b2236a", // tier3/uncoupled seed 2
		"76146b96eb51af9f71c2e7ba4c2e5f931b5e4ba456386a01ea2cf98968d76757", // tier3/uncoupled seed 3
		"f9c085c29ba2be1f9d5145f9a69f8ab506591b58652167d6589ee147b7ef5df9", // asym3/olia seed 1
		"dc31aaaa14298ac2f6e1215abe9d78ddb59a13106df9cef1ca5fc0d3a213d0a1", // asym3/olia seed 2
		"0a2da864868cebd3fc77fd6b2e6d04f277840b460f6a6c255a8ac924b56e108f", // asym3/olia seed 3
		"6e12d2f1b173d64a78e79e8dcab5560a624f04aa5b931156fce12cad7a8e7ff7", // asym3/lia seed 1
		"f0f5a1b0a4cb26b0b8f81a52aa3788f68e1da3858d8f0e1c5372e9c7c13a987d", // asym3/lia seed 2
		"5830d2958d6d970f5fa16e5c7987ddbee1de8d3413913959ec3c86fc970f122e", // asym3/lia seed 3
		"076d45877b42cd6ebc2e7c495319a1bd613e7f61e0eb7a3455ba642cdb07d096", // asym3/uncoupled seed 1
		"d2c2b923d797fa7f1deb9fff9d8c579b0af801625715d2cc98184514b9150cb4", // asym3/uncoupled seed 2
		"66368331872d87fb990952b7921a48ef088232e35ba5e1d4425282d8fdb34bcd", // asym3/uncoupled seed 3
		"f7ec8cbaf8c8f2efe3550536c426746a56541f4a0f8ed447c12c30ac82ea6d97", // steep4/olia seed 1
		"f34960a7be243029956471c013c899ce449dd7a1809d660af8ef225312843481", // steep4/olia seed 2
		"efd7fe1d15a54e8b1312c97466ca26d5116b3a928b9e66088104975acd5f679e", // steep4/olia seed 3
		"e1ae7f07121320eff9008bc778e4e9c05c4b8e8d8c8bddaf21b3bdedbccbb822", // steep4/lia seed 1
		"14102ccb84ab652e95ce6e8d48feee8c78d5ca0092cbaf84f00ec62560d208e9", // steep4/lia seed 2
		"233e0d7e85636fdb40ddfdb55e4c1c49004efd88493f95b8eaae43f80df3eb3e", // steep4/lia seed 3
		"7a9258b049aa8c436ed1b593f4481f2334aae12a543176cb92283a7d8e4833d1", // steep4/uncoupled seed 1
		"1dc8aa71635d429abc9094fb56ff11be516e0602becf9c270a957909bf389a7d", // steep4/uncoupled seed 2
		"37e0fd96dace82f4315cb619f001db66a28978a0bcb7d1c34e3fce91de3e40fb", // steep4/uncoupled seed 3
	}
	jobs := Get("conformance").Plan(conformSmokeConfig()).Jobs
	if len(jobs) != len(want) {
		t.Fatalf("%d jobs, want %d", len(jobs), len(want))
	}
	for i, j := range jobs {
		b, err := scenario.AppendSpec(nil, j.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != want[i] {
			t.Errorf("job %d (%s seed %d): SHA-256 %x, want %s", i, j.Spec.Name, j.Spec.Seed, sum, want[i])
		}
	}
}

package harness

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
)

// TestBackToBackRunsMatchGoldens guards the pooled kernel against state
// leaking between runs inside one process: event and packet free lists are
// per-Sim, so running the same experiment twice back to back — and running
// a different experiment in between — must produce output byte-identical to
// the fresh-process goldens every time.
func TestBackToBackRunsMatchGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments skipped in -short")
	}
	cfg := goldenConfig()
	// Two experiments from different families (testbed RED scenario and
	// FatTree data center), interleaved: A, B, A, B.
	ids := []string{"fig1b", "fig13a", "fig1b", "fig13a"}
	for pass, id := range ids {
		e := Get(id)
		if e == nil {
			t.Fatalf("unknown experiment %q", id)
		}
		r, err := e.CollectResult(context.Background(), cfg, nil)
		if err != nil {
			t.Fatalf("pass %d %s: %v", pass, id, err)
		}
		var b bytes.Buffer
		if err := RenderText(r, &b); err != nil {
			t.Fatalf("pass %d %s: %v", pass, id, err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", "golden", id+".txt"))
		if err != nil {
			t.Fatalf("missing golden for %s: %v", id, err)
		}
		if !bytes.Equal(b.Bytes(), want) {
			t.Fatalf("pass %d: %s diverged from golden on a repeated in-process run\n--- got ---\n%s",
				pass, id, b.Bytes())
		}
	}
}

//go:build unix

package campaign

import (
	"context"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestRunCreatesSharedDir: a Run into a missing cache directory creates it,
// and every missing parent, 0777 less the umask, so under umask 002 a group
// that may write the packs may also rename new ones into the directory. It
// sets the process's umask, so it does not run in parallel.
func TestRunCreatesSharedDir(t *testing.T) {
	old := syscall.Umask(0o002)
	defer syscall.Umask(old)
	sp := tinySpec()
	sp.N = 1
	parent := filepath.Join(t.TempDir(), "shared")
	sp.CacheDir = filepath.Join(parent, "cache")
	if _, err := Run(context.Background(), sp, Options{Workers: 1, Version: "test"}); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{parent, sp.CacheDir} {
		st, err := os.Stat(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got := st.Mode().Perm(); got != 0o775 {
			t.Errorf("%s created with mode %v under umask 002, want %v", dir, got, os.FileMode(0o775))
		}
	}
}

package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"

	"mptcpsim/internal/scenario"
)

// The result cache is content-addressed: a completed run is stored under
// the SHA-256 of everything its report is a function of — the cache schema
// version, the code version (the facade derives it from a hash of
// api.txt and behaviour.lock), and scenario.AppendSpec's encoding of the
// full Spec, which carries the scenario seed. The scenario layer
// guarantees a run is a pure function of (spec, seed) — the fuzzer re-runs
// every generated scenario and compares RunReport digests — so a hit can
// stand in for a simulation exactly. An entry is the schema line followed
// by scenario.AppendReport's encoding, which carries every float64 as its
// bits, so a warm re-run folds the identical samples and produces the
// byte-identical aggregate.
//
// Layout: <dir>/<key[:2]>/<key>.bin, one atomic file per run (written to
// a temp name, then renamed), so concurrent workers — or concurrent
// campaigns sharing one directory — never observe a torn entry.

// cacheSchema versions the on-disk format: it is hashed into every key and
// opens every entry, so a tree written under another schema is never
// addressed, and a file of one never decodes. Bump it with any change to
// scenario.AppendSpec or scenario.AppendReport.
const cacheSchema = "mptcpsim-campaign-cache-v5"

// reportHeader opens every entry: a stale or foreign file fails on its
// first bytes.
const reportHeader = cacheSchema + "\n"

// keyPool and entryPool hold cacheKey's and get's scratch buffers, so a hit
// allocates for its entry's path alone.
var (
	keyPool   = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}
	entryPool = sync.Pool{New: func() any { b := make([]byte, 8<<10); return &b }}
)

// CacheKey returns the content address of one scenario run under the given
// code version: hex SHA-256 over the schema tag, a zero byte, the version,
// a zero byte, and scenario.AppendSpec's encoding of sp. A NaN or ±Inf
// anywhere in sp is an error.
func CacheKey(version string, sp *scenario.Spec) (string, error) {
	key, err := cacheKey(version, sp)
	if err != nil {
		return "", err
	}
	return string(key[:]), nil
}

// entryKey is CacheKey's hex digits before they become a string: a hit
// needs them only inside its entry's path.
type entryKey [2 * sha256.Size]byte

// cacheKey is CacheKey without the string.
func cacheKey(version string, sp *scenario.Spec) (entryKey, error) {
	var key entryKey
	bp := keyPool.Get().(*[]byte)
	defer keyPool.Put(bp)
	b := append((*bp)[:0], cacheSchema...)
	b = append(b, 0)
	b = append(b, version...)
	b = append(b, 0)
	b, err := scenario.AppendSpec(b, sp)
	*bp = b
	if err != nil {
		return key, err
	}
	sum := sha256.Sum256(b)
	hex.Encode(key[:], sum[:])
	return key, nil
}

// cache is one on-disk result store. dir is its cleaned root with a
// trailing separator, so an entry's path is one concatenation.
type cache struct {
	dir string
}

// openCache prepares the cache root. An empty dir means no cache: the nil
// *cache tells Run to derive no key and touch no file.
func openCache(dir string) (*cache, error) {
	if dir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: opening result cache: %w", err)
	}
	dir = filepath.Clean(dir)
	if !os.IsPathSeparator(dir[len(dir)-1]) {
		dir += string(filepath.Separator)
	}
	return &cache{dir: dir}, nil
}

// path maps a key to its entry file, in one allocation.
func (c *cache) path(key entryKey) string {
	return c.dir + string(key[:2]) + string(filepath.Separator) + string(key[:]) + ".bin"
}

// get decodes the report cached under key for the run of sp into rep and
// reports whether it hit. A missing, torn or undecodable entry is a miss,
// never an error, and so is one that decodes to some other run (a file
// copied or renamed by hand, a half-restored directory): the caller falls
// back to simulating and rewrites the entry. After a miss rep holds
// nothing of use.
func (c *cache) get(key entryKey, sp *scenario.Spec, rep *scenario.RunReport) bool {
	bp := entryPool.Get().(*[]byte)
	defer entryPool.Put(bp)
	data, ok := readEntry(c.path(key), bp)
	if !ok || len(data) < len(reportHeader) || string(data[:len(reportHeader)]) != reportHeader {
		return false
	}
	// The decode copies every string it does not already hold out of data,
	// so the buffer can go back to the pool under the report. Holding the
	// spec's name lets it keep that one rather than copy the entry's equal
	// bytes.
	rep.Name = sp.Name
	err := scenario.DecodeReportInto(rep, data[len(reportHeader):])
	return err == nil && rep.Name == sp.Name && rep.Seed == sp.Seed
}

// readEntry reads the file at path into *buf, growing it while reads fill
// it, and returns the bytes read. It is os.ReadFile without the os.File: an
// open, a read and a close, where os.ReadFile also toggles non-blocking
// mode, stats the file, reads to EOF and sets a finalizer.
//
// A read that does not fill the buffer is taken as the whole file. Were it
// ever only a prefix, the entry would not decode — a proper prefix of a
// canonical entry never does — so the worst case is a miss, never a wrong
// hit.
func readEntry(path string, buf *[]byte) ([]byte, bool) {
	fd, err := syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	if err != nil {
		return nil, false
	}
	defer syscall.Close(fd)
	b, n := *buf, 0
	for {
		m, err := syscall.Read(fd, b[n:])
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return nil, false
		}
		if n += m; n < len(b) {
			return b[:n], true
		}
		b = append(b, make([]byte, len(b))...)
		*buf = b
	}
}

// put stores a completed run under key, atomically: the entry is fully
// written to a private temp file and renamed into place, so readers see
// either nothing or the whole report.
func (c *cache) put(key entryKey, rep *scenario.RunReport) error {
	path := c.path(key)
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("campaign: preparing cache shard: %w", err)
	}
	tmp, err := os.CreateTemp(dir, string(key[:])+".tmp-*")
	if err != nil {
		return fmt.Errorf("campaign: writing cache entry: %w", err)
	}
	if _, err := tmp.Write(scenario.AppendReport([]byte(reportHeader), rep)); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("campaign: writing cache entry: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("campaign: writing cache entry: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("campaign: committing cache entry: %w", err)
	}
	return nil
}

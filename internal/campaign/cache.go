package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"mptcpsim/internal/scenario"
)

// The result cache is content-addressed: a completed run is stored under
// the SHA-256 of everything its report is a function of — the cache schema
// version, the code version (the facade derives it from a hash of
// api.txt), and the canonical JSON encoding of the full scenario.Spec,
// which carries the scenario seed. The scenario layer guarantees a run is
// a pure function of (spec, seed) — the fuzzer re-runs every generated
// scenario and compares RunReport digests — so a hit can stand in for a
// simulation exactly. An entry is the report in the binary encoding of
// codec.go, which carries every float64 as its bits, so a warm re-run
// folds the identical samples and produces the byte-identical aggregate.
//
// Layout: <dir>/<key[:2]>/<key>.bin, one atomic file per run (written to
// a temp name, then renamed), so concurrent workers — or concurrent
// campaigns sharing one directory — never observe a torn entry.

// cacheSchema versions the on-disk format: it is hashed into every key and
// opens every entry, so a tree written under another schema is never
// addressed, and a file of one never decodes. Bump it with any change to
// codec.go's encoding.
const cacheSchema = "mptcpsim-campaign-cache-v2"

// CacheKey returns the content address of one scenario run under the given
// code version: hex SHA-256 over the schema tag, the version, and the
// spec's canonical JSON (struct field order, so two equal specs always
// encode identically).
func CacheKey(version string, sp *scenario.Spec) (string, error) {
	data, err := json.Marshal(sp)
	if err != nil {
		return "", fmt.Errorf("campaign: encoding spec for cache key: %w", err)
	}
	h := sha256.New()
	h.Write([]byte(cacheSchema))
	h.Write([]byte{0})
	h.Write([]byte(version))
	h.Write([]byte{0})
	h.Write(data)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// cache is one on-disk result store rooted at dir.
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
	return &cache{dir: dir}, nil
}

// path maps a key to its entry file.
func (c *cache) path(key string) string {
	return filepath.Join(c.dir, key[:2], key+".bin")
}

// get loads the report cached under key for the run of sp. A missing, torn
// or undecodable entry is a miss, never an error, and so is one that
// decodes to some other run (a file copied or renamed by hand, a
// half-restored directory): the caller falls back to simulating and
// rewrites the entry.
func (c *cache) get(key string, sp *scenario.Spec) (*scenario.RunReport, bool) {
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	rep, err := decodeReport(data)
	if err != nil || rep.Name != sp.Name || rep.Seed != sp.Seed {
		return nil, false
	}
	return rep, true
}

// put stores a completed run under key, atomically: the entry is fully
// written to a private temp file and renamed into place, so readers see
// either nothing or the whole report.
func (c *cache) put(key string, rep *scenario.RunReport) error {
	dir := filepath.Dir(c.path(key))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("campaign: preparing cache shard: %w", err)
	}
	tmp, err := os.CreateTemp(dir, key+".tmp-*")
	if err != nil {
		return fmt.Errorf("campaign: writing cache entry: %w", err)
	}
	if _, err := tmp.Write(appendReport(nil, rep)); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("campaign: writing cache entry: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("campaign: writing cache entry: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("campaign: committing cache entry: %w", err)
	}
	return nil
}

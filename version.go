package mptcpsim

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
)

// apiLock is the locked public API surface, embedded at build time: the
// same api.txt `make apicheck` regenerates and diffs, so the binary always
// knows which surface it was built against.
//
//go:embed api.txt
var apiLock []byte

// behaviourLock is the locked simulator behaviour: the canary digests
// TestBehaviourLock checks and `make lock` regenerates.
//
//go:embed behaviour.lock
var behaviourLock []byte

// version is computed once: "api-" + the first 12 hex characters of the
// SHA-256 of the locked API surface followed by the locked behaviour.
var version = func() string {
	h := sha256.New()
	h.Write(apiLock)
	h.Write(behaviourLock)
	return "api-" + hex.EncodeToString(h.Sum(nil)[:6])
}()

// Version reports the build's code version, derived from the hash of the
// locked public API surface (api.txt) and the locked behaviour
// (behaviour.lock): any exported-surface change — a new method, a changed
// signature, a reworded contract — and any change that moves a canary
// run's event count, goodput or queue counters yields a new version string.
// It is printed by `mptcpsim -version`, reported by the serve API, and used
// as the code-version component of every campaign cache key, so results
// cached by one build are never replayed against a different surface or
// behaviour.
func Version() string { return version }

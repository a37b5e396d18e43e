// Package artifact is the simulator's content-addressed result cache.
//
// The full pipeline — assemble, emulate, analyze, simulate — is
// deterministic per (program source, machine configuration, spawn policy),
// so its products are cacheable forever under a canonical hash of those
// inputs. The cache is two-tier: a bounded in-memory LRU in front of an
// on-disk store laid out by hash, with singleflight deduplication so
// concurrent identical requests run the pipeline once and share the
// result. polyflowd serves from it; cmd/experiments fills it via
// -cache-dir; cached and freshly computed artifacts are byte-identical
// (enforced by the correctness tests in this package).
//
// See docs/SERVICE.md for the on-disk layout and operational notes.
package artifact

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/machine"
)

// KeySchema identifies the key layout. Bump on any change to the fields
// hashed into a key — old cache entries then miss instead of aliasing.
// v2 added the spawn-site mask to the configuration fingerprint; v3 made
// the fingerprint machine.Config's own JSON encoding.
const KeySchema = "polyflow-sim-key/3"

// ErrUncacheable marks inputs whose identity cannot be captured in a key:
// a bench prepared from an unregistered source, or a configuration with a
// custom cache hierarchy attached. Callers fall back to computing without
// the cache.
var ErrUncacheable = errors.New("artifact: inputs are not cacheable")

// Key is the canonical identity of one simulation: the workload source,
// the emulation bound, the spawn policy, and the machine configuration
// fingerprint. Its hash addresses the artifact in both tiers.
type Key struct {
	Schema    string `json:"schema"`
	Workload  string `json:"workload"`
	SourceSHA string `json:"source_sha"`
	MaxInstrs int    `json:"max_instrs"`
	Policy    string `json:"policy"`
	Config    string `json:"config"`
}

// NewSimKey builds the key for simulating the named workload (with the
// given assembly-source hash and emulation bound) under policy and cfg.
// It fails with ErrUncacheable when sourceSHA is empty or cfg carries a
// custom cache hierarchy.
func NewSimKey(workload, sourceSHA string, maxInstrs int, policy string, cfg machine.Config) (Key, error) {
	if sourceSHA == "" {
		return Key{}, fmt.Errorf("%w: bench %q has no source hash", ErrUncacheable, workload)
	}
	fp, err := ConfigFingerprint(cfg)
	if err != nil {
		return Key{}, err
	}
	return Key{
		Schema:    KeySchema,
		Workload:  workload,
		SourceSHA: sourceSHA,
		MaxInstrs: maxInstrs,
		Policy:    policy,
		Config:    fp,
	}, nil
}

// Hash returns the key's content address: the hex SHA-256 of its canonical
// JSON serialization.
func (k Key) Hash() string { return hashJSON(k) }

// hashJSON is the content address shared by every key type: the hex
// SHA-256 of v's JSON serialization. Keys are structs of strings and ints,
// so Marshal cannot fail.
func hashJSON(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// SourceSHA hashes program source text for use in keys.
func SourceSHA(src string) string {
	sum := sha256.Sum256([]byte(src))
	return hex.EncodeToString(sum[:])
}

// ConfigFingerprint canonicalizes a machine configuration for keying: its
// JSON encoding, which leaves out the run observers (machine.Config tags
// them `json:"-"`) and carries the spawn mask in canonical form. Nil and
// empty masks are the same mask and fingerprint alike. Configurations with
// a custom cache hierarchy are ErrUncacheable: the hierarchy's geometry
// lives behind unexported fields, so its identity cannot be hashed
// faithfully.
func ConfigFingerprint(cfg machine.Config) (string, error) {
	if cfg.Caches != nil {
		return "", fmt.Errorf("%w: custom cache hierarchy attached", ErrUncacheable)
	}
	if cfg.SpawnMask.Len() == 0 {
		cfg.SpawnMask = nil
	}
	data, err := json.Marshal(cfg)
	if err != nil {
		return "", err
	}
	return string(data), nil
}

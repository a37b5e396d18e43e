package machine

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/attrib"
	"repro/internal/core"
)

// SpawnMask is a set of suppressed spawn sites, keyed by (trigger PC,
// core.Kind) exactly like the attribution table. A masked site is invisible
// to the Task Spawn Unit: no task is spawned from it, no rejection is
// counted, and no attribution is charged — the machine behaves as if the
// static analysis had never emitted that spawn point. An empty or nil mask
// is a no-op and simulates bit-identically to a maskless run (the
// differential suite enforces this).
//
// The mask is a semantic configuration input: it changes the simulated
// outcome, so it participates in the artifact-cache key via its canonical
// encoding (see Encode). internal/tune searches over masks; polyflow,
// experiments and polyflowd accept them as "0xPC:kind,..." strings.
type SpawnMask struct {
	keys map[uint64]struct{} // packed pc<<3 | kind+1, the attrib keying
}

// maskKey packs (pc, kind) the same way attrib.Table keys sites, so a mask
// entry and an attribution record for one site agree on identity.
func maskKey(pc uint64, kind uint8) uint64 {
	return pc<<3 | uint64(kind+1)
}

// NewSpawnMask returns an empty mask.
func NewSpawnMask() *SpawnMask {
	return &SpawnMask{keys: map[uint64]struct{}{}}
}

// Add suppresses the (pc, kind) site. Kinds at or beyond core.NumKinds
// (including the attrib root pseudo-kind, which never spawns) are ignored.
func (m *SpawnMask) Add(pc uint64, kind uint8) {
	if kind >= uint8(core.NumKinds) {
		return
	}
	if m.keys == nil {
		m.keys = map[uint64]struct{}{}
	}
	m.keys[maskKey(pc, kind)] = struct{}{}
}

// Contains reports whether (pc, kind) is suppressed. Nil-safe: a nil mask
// contains nothing.
func (m *SpawnMask) Contains(pc uint64, kind uint8) bool {
	if m == nil {
		return false
	}
	_, ok := m.keys[maskKey(pc, kind)]
	return ok
}

// Len returns the number of suppressed sites. Nil-safe.
func (m *SpawnMask) Len() int {
	if m == nil {
		return 0
	}
	return len(m.keys)
}

// Clone returns an independent copy. Cloning nil yields an empty mask.
func (m *SpawnMask) Clone() *SpawnMask {
	c := NewSpawnMask()
	if m != nil {
		for k := range m.keys {
			c.keys[k] = struct{}{}
		}
	}
	return c
}

// With returns a copy of m with (pc, kind) additionally suppressed; m is
// unchanged. Nil-safe — the idiom for proposing search candidates.
func (m *SpawnMask) With(pc uint64, kind uint8) *SpawnMask {
	c := m.Clone()
	c.Add(pc, kind)
	return c
}

// ForEach calls fn for every suppressed site in canonical (PC, kind) order.
func (m *SpawnMask) ForEach(fn func(pc uint64, kind uint8)) {
	if m == nil {
		return
	}
	keys := make([]uint64, 0, len(m.keys))
	for k := range m.keys {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		fn(k>>3, uint8(k&7)-1)
	}
}

// Encode renders the canonical string form: "0xPC:kind" entries sorted by
// (PC, kind) and joined with commas. Every mask has exactly one encoding —
// insertion order and duplicates cannot influence it — so the encoding is
// safe to hash into artifact-cache keys. Nil and empty masks both encode to
// "" (they are semantically the same mask).
func (m *SpawnMask) Encode() string {
	if m.Len() == 0 {
		return ""
	}
	parts := make([]string, 0, m.Len())
	m.ForEach(func(pc uint64, kind uint8) {
		parts = append(parts, fmt.Sprintf("0x%x:%s", pc, attrib.KindName(kind)))
	})
	return strings.Join(parts, ",")
}

// String is Encode, for printing.
func (m *SpawnMask) String() string { return m.Encode() }

// MarshalText is Encode, so a Config's JSON fingerprint carries the
// mask's canonical form.
func (m *SpawnMask) MarshalText() ([]byte, error) { return []byte(m.Encode()), nil }

// ParseSpawnMask parses the "0xPC:kind,..." form accepted by the CLIs and
// the daemon API. Entries may arrive in any order and duplicated; the
// result re-encodes canonically. The empty string parses to nil (no mask).
// Kind names are the spawn categories of the paper ("loop", "loopFT",
// "procFT", "hammock", "other"); "root" is rejected — the initial task has
// no spawn point to suppress.
func ParseSpawnMask(s string) (*SpawnMask, error) {
	if s == "" {
		return nil, nil
	}
	m := NewSpawnMask()
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			return nil, fmt.Errorf("machine: empty spawn-mask entry in %q", s)
		}
		pcStr, kindStr, ok := strings.Cut(entry, ":")
		if !ok {
			return nil, fmt.Errorf("machine: spawn-mask entry %q is not 0xPC:kind", entry)
		}
		hex := strings.TrimPrefix(pcStr, "0x")
		if hex == pcStr {
			return nil, fmt.Errorf("machine: spawn-mask PC %q must be 0x-prefixed hex", pcStr)
		}
		pc, err := strconv.ParseUint(hex, 16, 61)
		if err != nil {
			return nil, fmt.Errorf("machine: spawn-mask PC %q: %v", pcStr, err)
		}
		kind, ok := attrib.KindByName(kindStr)
		if !ok || kind >= uint8(core.NumKinds) {
			return nil, fmt.Errorf("machine: spawn-mask kind %q is not a spawn category", kindStr)
		}
		m.Add(pc, kind)
	}
	return m, nil
}

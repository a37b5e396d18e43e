// Package tracestore serializes the functional emulator's products — the
// retired instruction trace, its per-PC occurrence index, and the
// last-writer dependence information — into a compact, versioned,
// checksummed binary format, so a workload is emulated once and every
// policy replay thereafter decodes the stored bytes instead of re-running
// the emulator (decode-once, simulate-many).
//
// # Format: polyflow-trace/1
//
// A trace file is a 5-byte header ("PFTR" + version byte) followed by a
// sequence of frames, each
//
//	kind byte | uvarint itemCount | uvarint payloadLen | payload | crc32c(payload)
//
// in strict kind order: any number of entry frames ('E'), then occurrence
// frames ('O'), then dependence frames ('D'), then exactly one end frame
// ('Z') whose itemCount is the total entry count, then EOF. Every frame's
// payload is bounded (Encode targets ~256 KiB, the reader rejects
// anything over maxFramePayload), so a corrupt length can never provoke an
// unbounded allocation.
//
// Entry frames hold up to chunkEntries entries, delta-encoded with the
// previous-PC and previous-address state reset at each frame boundary:
// per entry a flags byte, an opcode byte, zigzag-varint PC and
// next-PC deltas (next relative to PC+4, the fallthrough), then — only for
// loads and stores — a width byte and a zigzag-varint address delta, then
// — only when the entry writes a register — the destination byte, then a
// source count byte and that many source registers. A trace.Entry holds
// no next-PC: Encode derives each from the following entry's PC, or from
// Trace.End after the last entry, and the decoder checks the chain — each
// entry's PC must equal the next-PC decoded before it, across frame
// boundaries too — and returns the last next-PC as End. The encoding is
// injective over traces the emulator can produce (Encode rejects entries
// carrying values the format would drop, such as an effective address on
// a non-memory op), so decode∘encode is the identity and encode∘decode is
// byte-identical — the property FuzzTraceCodec pins.
//
// Occurrence frames serialize the per-PC occurrence index as strictly
// ascending PCs (varint deltas, absolute at each frame start), each with
// its ascending occurrence-index list (absolute first index, then varint
// deltas). Dependence frames serialize, for entry i, the producing trace
// index of each register source and (for loads) of the most recent
// overlapping store, as zigzag varints relative to i. A trace.Deps holds
// only the memory producers: Encode derives the register producers it
// writes with trace.RegWriters, and the reader checks each stored one
// against the same rule and keeps none. The reader checks the next-PC
// chain, the occurrence index and every register producer exactly
// against the decoded entries; memory producers are only range-checked,
// since an exact check would need ComputeDeps' store table. The checksums
// guard integrity, not authenticity — the artifact cache's content
// addressing covers the rest.
//
// Encode writes each section in one pass straight into its presized
// output, and writes the occurrence section from the trace's own index:
// the one a decode restored or the simulator built, or else one
// internal/trace builds for the call. Occurrence lists are built nowhere
// else. The decoder fills its exactly sized entry slice in place; the
// occurrence check records which list claims each entry in the memory
// producer column of its own dependence output, and the dependence pass,
// which walks the entries in order anyway, completes it there.
//
// See docs/PERFORMANCE.md ("Trace replay") for how the store fits the
// batched multi-policy run path, and docs/SERVICE.md for the artifact kind
// and the daemon's GET /v1/traces/{bench} endpoint.
package tracestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Schema names the on-disk format, as referenced by the artifact store and
// the service API. Bump the trailing version (and the header version byte)
// on any incompatible layout change — the golden-format test fails
// otherwise.
const Schema = "polyflow-trace/1"

// Header bytes: magic then version.
var magic = [4]byte{'P', 'F', 'T', 'R'}

const version = 1

// Frame kinds, in required stream order.
const (
	kindEntries byte = 'E'
	kindOcc     byte = 'O'
	kindDeps    byte = 'D'
	kindEnd     byte = 'Z'
)

const (
	// chunkEntries bounds entries per 'E' frame; delta state resets at
	// each frame so a frame decodes independently of its predecessors.
	chunkEntries = 4096
	// frameTarget is Encode's payload threshold for closing a frame of
	// the variable-length 'O' and 'D' sections.
	frameTarget = 256 << 10
	// maxFramePayload is the reader-side hard cap on a declared payload
	// length; a corrupted length field fails fast instead of allocating.
	maxFramePayload = 4 << 20
)

// ErrCorrupt reports a malformed, truncated, or checksum-failing stream.
// Every decode failure wraps it; decoding never panics on bad input.
var ErrCorrupt = errors.New("tracestore: corrupt or truncated trace")

// ErrUnencodable reports an input trace carrying state the format cannot
// represent (for example a non-memory entry with an effective address) —
// encoding it would not round-trip, so Encode refuses.
var ErrUnencodable = errors.New("tracestore: trace not representable in polyflow-trace/1")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// zigzag maps signed to unsigned so small-magnitude deltas stay short.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendUvarint appends v to b varint-encoded, one-byte values inline.
func appendUvarint(b []byte, v uint64) []byte {
	if v < 0x80 {
		return append(b, byte(v))
	}
	return binary.AppendUvarint(b, v)
}

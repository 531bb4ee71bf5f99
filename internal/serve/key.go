package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"nda/internal/store"
)

// Key derives the content address for a unit of simulation work: a stable
// SHA-256 over the kind tag, the store format version, and the canonical
// JSON encoding of the inputs that determine the result. Two requests
// that would simulate the same thing — the same program, ooo.Params,
// policy, and sample spec — hash to the same key no matter which API
// call, job, or client they arrive through, which is what lets the cache
// serve repeated sweeps, repeated attack cells, and shared checkpoint
// series without re-simulation.
//
// The encoding is canonical because every key payload is a struct of
// scalars, slices, and string-keyed maps: encoding/json emits struct fields
// in declaration order and sorts map keys, so identical values yield
// identical bytes. Anything that must not affect identity (worker counts,
// progress hooks) is stripped before hashing.
//
// store.FormatVersion is folded into the preimage so that bumping it
// invalidates every tier at once: RAM entries, disk entries, and the
// fleet-shared tier all key off this hash, and results persisted under an
// old format version become unreachable instead of being decoded wrong.
// TestKeyGolden pins today's hashes — an accidental bump (or any drift in
// the preimage layout) shows up there as a golden diff.
func Key(kind string, payload any) string {
	b := mustJSON(kind, payload)
	return keyID(kind, append(keyHead(make([]byte, 0, len(kind)+8+len(b)), kind), b...))
}

// keyHead appends what every key hashes ahead of its payload's JSON:
// kind‖0‖FormatVersion‖0.
func keyHead(b []byte, kind string) []byte {
	b = append(b, kind...)
	b = append(b, 0)
	b = strconv.AppendInt(b, store.FormatVersion, 10)
	return append(b, 0)
}

// keyID is the content address of a preimage that starts with keyHead.
func keyID(kind string, preimage []byte) string {
	sum := sha256.Sum256(preimage)
	var buf [64]byte
	return string(hex.AppendEncode(append(append(buf[:0], kind...), ':'), sum[:16]))
}

// mustJSON encodes a key payload.
func mustJSON(kind string, payload any) []byte {
	b, err := json.Marshal(payload)
	if err != nil {
		// Key payloads are internal structs of plain data; failing to
		// encode one is a programming error, not an input error.
		panic(fmt.Sprintf("serve: unencodable key payload for %q: %v", kind, err))
	}
	return b
}

// appendJSONString appends s as encoding/json encodes it: printable ASCII
// that needs no escape goes between quotes as it is, anything else
// through encoding/json.
func appendJSONString(b []byte, s string) []byte {
	if plainJSONString(s) {
		b = append(b, '"')
		b = append(b, s...)
		return append(b, '"')
	}
	return append(b, mustJSON("string", s)...)
}

// plainJSONString reports whether encoding/json writes s between quotes
// as it is: printable ASCII that needs no escape.
func plainJSONString(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// jsonStringLen is the length of appendJSONString's output for s.
func jsonStringLen(s string) int {
	if plainJSONString(s) {
		return len(s) + 2
	}
	return len(mustJSON("string", s))
}

// appendJSONStrings appends names as encoding/json encodes a non-nil
// []string.
func appendJSONStrings(b []byte, names []string) []byte {
	b = append(b, '[')
	for i, s := range names {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, s)
	}
	return append(b, ']')
}

// maxJSONFloatLen bounds the length of appendJSONFloat's output.
const maxJSONFloatLen = 32

// appendJSONFloat appends f as encoding/json encodes a float64: the
// shortest representation that reads back as f, in exponent form below
// 1e-6 and from 1e21 in magnitude. Like encoding/json it fails on NaN and
// the infinities.
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		// e-07 → e-7, as encoding/json writes it.
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}

package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// parseEntry is the fuzz oracle: an independent reading of the entry
// format, so a check dropped from readEntry shows up as a disagreement.
func parseEntry(b []byte) (key string, val []byte, ok bool) {
	if len(b) < 20 || string(b[:4]) != "NDST" || binary.LittleEndian.Uint32(b[4:8]) != FormatVersion {
		return "", nil, false
	}
	keyLen := uint64(binary.LittleEndian.Uint32(b[8:12]))
	valLen := uint64(binary.LittleEndian.Uint32(b[12:16]))
	if uint64(len(b)) != 20+keyLen+valLen {
		return "", nil, false
	}
	val = b[20+keyLen:]
	if crc32.ChecksumIEEE(val) != binary.LittleEndian.Uint32(b[16:20]) {
		return "", nil, false
	}
	return string(b[20 : 20+keyLen]), val, true
}

// FuzzOpen writes arbitrary bytes as one entry file next to one valid
// entry and opens the directory. Open must not panic, must serve the
// file only if its header and CRC hold, and must keep the valid entry.
// The fuzzed file's name sorts after every content address, so a file
// that validly claims the same key is the duplicate Open drops.
func FuzzOpen(f *testing.F) {
	const goodKey = "sweep-cell:good"
	goodVal := []byte(`{"cycles":123,"cpi":1.5}`)
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, entryName(goodKey)), encodeEntry(goodKey, goodVal), 0o644); err != nil {
			t.Fatal(err)
		}
		fuzzed := filepath.Join(dir, "zz-fuzzed"+entrySuffix)
		if err := os.WriteFile(fuzzed, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := s.Get(goodKey); !ok || !bytes.Equal(got, goodVal) {
			t.Fatalf("valid entry lost: %q, %v", got, ok)
		}
		key, val, ok := parseEntry(data)
		served := ok && key != goodKey
		if c := s.Counters(); served != (c.Entries == 2) || served == (c.DroppedOnOpen == 1) {
			t.Fatalf("fuzzed file served = %v, but counters %+v", served, c)
		}
		if _, err := os.Stat(fuzzed); served == os.IsNotExist(err) {
			t.Fatalf("fuzzed file served = %v, but on disk: %v", served, err)
		}
		if served {
			if got, hit := s.Get(key); !hit || !bytes.Equal(got, val) {
				t.Fatalf("valid fuzzed entry %q not served intact: %q, %v", key, got, hit)
			}
		}
	})
}

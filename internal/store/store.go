// Package store is the disk tier of the content-addressed result cache: a
// persistent key/value store that survives restarts and is shared by every
// manager that opens the same directory. The serve layer stacks it under
// its in-RAM LRU, and a fleet coordinator consults one as the fleet-wide
// tier before dispatching a cell to any worker.
//
// Safety model. Every value is keyed by a hash of the full input
// description that produced it (serve.Key), so persistence is safe by
// construction: whatever a stored entry holds is byte-for-byte what a
// fresh simulation of that key would produce, however old the file is.
// The store therefore never needs expiry or coherence — only integrity —
// and integrity is local to each entry:
//
//   - writes are atomic: the entry is written to a temp file in the store
//     directory, fsynced, and renamed into place, so a crash (kill -9
//     included) leaves either the complete entry or no entry;
//   - every entry file carries a header with a magic tag, the store
//     format version, its key, and a CRC of the value; Open re-validates
//     all of it and deletes anything torn, truncated, alien, or written
//     by a different format version — a dropped entry is recomputed on
//     the next request, never served corrupt;
//   - leftover temp files from interrupted writes are swept on Open.
//
// Eviction is sized in bytes, not entries: Options.MaxBytes budgets the
// sum of entry file sizes, and Put evicts least-recently-used entries
// until the budget holds. Recency survives restarts in each entry file's
// mtime, which Put and every hit stamp with the store's logical clock
// (never a wall-clock read); Open orders entries by (mtime, file name)
// and seeds the clock from the newest stamp. The stamps are advisory —
// losing one costs eviction precision, never correctness.
//
// Concurrency. Entries never change once written, so the mutex covers
// only the in-memory index. Get reads the file after releasing it (a
// vanished or bad file is a miss); Put writes, fsyncs and renames before
// taking it and then publishes; eviction picks victims under it and
// unlinks them after.
//
// Sharing. Live processes may open one directory at once, as coordinator
// replicas over a fleet-shared store do. Each keeps its own index: the
// entries its Open found, its own Puts, and every entry file a peer wrote
// since that its Get has found. On an index miss Get reads the key's
// content-addressed file and, if it is sound, indexes it and counts a hit
// (not a put). Has stays index-only and does no I/O, so a saturated
// coordinator admits past its queue only the cells its own index holds.
// Open sweeps every temp file, including a live peer's in-flight one;
// that peer's Put then fails onto PutErrors, and the value it was storing
// is still served, only not persisted. Each process budgets bytes against
// its own index, so one may evict a file another indexes; the other's
// next Get of it misses and drops it.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// FormatVersion is the on-disk entry format's version. serve.Key folds it
// into every key's hash preimage, so bumping it atomically invalidates
// both tiers of every deployed cache: old entry files fail Open's version
// check and are deleted, and old RAM/disk keys can never collide with new
// ones. Bump it whenever the encoding of any stored result changes shape
// in a way the JSON field set alone would not reveal.
const FormatVersion = 1

// DefaultMaxBytes is the default byte budget: far above the full figure
// corpus (the complete default-sampling sweep, attack matrix, and gadget
// census marshal to a few MB), small enough to stay polite on a shared
// disk.
const DefaultMaxBytes = 1 << 30

// Options tunes an opened store.
type Options struct {
	// MaxBytes budgets the total size of entry files (headers included).
	// Put evicts least-recently-used entries beyond it. <= 0 selects
	// DefaultMaxBytes.
	MaxBytes int64
}

const (
	entrySuffix = ".cell"
	tmpPrefix   = "tmp-"

	// headerLen is magic(4) + version(4) + keyLen(4) + valLen(4) + crc(4).
	headerLen = 20
)

var magic = [4]byte{'N', 'D', 'S', 'T'}

// Store is one opened store directory. All methods are safe for
// concurrent use; Get and Put are best-effort on I/O errors (a failed
// read is a miss, a failed write is an uncached value), because the tier
// above always knows how to recompute.
type Store struct {
	dir string
	max int64

	// mu guards the index below and every entry's gen. No file I/O runs
	// while it is held.
	mu      sync.Mutex
	entries map[string]*entry // by key
	clock   int64             // logical clock: bumped per touch, highest = most recent
	bytes   int64             // sum of entry file sizes

	hits          atomic.Int64
	misses        atomic.Int64
	puts          atomic.Int64
	putErrors     atomic.Int64
	evictions     atomic.Int64
	evictedBytes  atomic.Int64
	droppedOnOpen atomic.Int64
}

// entry is one indexed file. Only gen changes after creation, and only
// under Store.mu.
type entry struct {
	key  string
	path string // entry file path
	size int64  // full entry file size
	gen  int64  // last touch on the logical clock, stamped as the file's mtime
}

// Counters is a point-in-time snapshot of the store's accounting, sized
// for /metrics: gauges for the live set, counters for lifetime traffic.
type Counters struct {
	Entries       int   `json:"entries"`
	Bytes         int64 `json:"bytes"`
	MaxBytes      int64 `json:"max_bytes"`
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Puts          int64 `json:"puts"`
	PutErrors     int64 `json:"put_errors"`
	Evictions     int64 `json:"evictions"`
	EvictedBytes  int64 `json:"evicted_bytes"`
	DroppedOnOpen int64 `json:"dropped_on_open"`
}

// entryName is the content address on disk: a fixed-width hex prefix of
// the key's SHA-256. The key itself is stored in the entry header, so a
// (cosmically unlikely) prefix collision reads as a key mismatch and is
// treated as a miss rather than served wrong.
func entryName(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:16]) + entrySuffix
}

// Open loads (or creates) the store at dir: it sweeps temp files from
// interrupted writes, validates every entry file (deleting torn or
// version-mismatched ones), restores recency from the entry mtimes, and
// enforces the byte budget. Any other file, such as the access log older
// stores kept, is ignored.
func Open(dir string, opts Options) (*Store, error) {
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = DefaultMaxBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:     dir,
		max:     opts.MaxBytes,
		entries: make(map[string]*entry),
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, de := range des {
		name := de.Name()
		switch {
		case de.IsDir():
			continue
		case strings.HasPrefix(name, tmpPrefix):
			// A temp file is an interrupted write: its entry was never
			// visible, so removing it loses nothing.
			_ = os.Remove(filepath.Join(dir, name))
		case strings.HasSuffix(name, entrySuffix):
			s.loadEntry(de)
		}
	}
	// Nothing else can reach s yet, so Open-time eviction takes no lock.
	unlink(s.evictOver("")...)
	return s, nil
}

// loadEntry validates one entry file during Open, indexing it under its
// mtime if sound and deleting it otherwise. Open calls it before the
// store is shared, so it takes no lock.
func (s *Store) loadEntry(de os.DirEntry) {
	path := filepath.Join(s.dir, de.Name())
	key, _, size, err := readEntry(path)
	var fi os.FileInfo
	if err == nil {
		fi, err = de.Info()
	}
	if err != nil {
		_ = os.Remove(path)
		s.droppedOnOpen.Add(1)
		return
	}
	if _, dup := s.entries[key]; dup {
		// Two files claiming one key can only come from manual tampering;
		// keep the first (ReadDir order) and drop the newcomer.
		_ = os.Remove(path)
		s.droppedOnOpen.Add(1)
		return
	}
	gen := fi.ModTime().Unix()
	s.clock = max(s.clock, gen)
	s.entries[key] = &entry{key: key, path: path, size: size, gen: gen}
	s.bytes += size
}

// readEntry reads and fully validates one entry file, returning its key,
// value, and total file size.
func readEntry(path string) (key string, val []byte, size int64, err error) {
	//ndavet:allow ctxlint:noctx one bounded local file read; cancellation is handled at the job layer, not per syscall
	b, err := os.ReadFile(path)
	if err != nil {
		return "", nil, 0, err
	}
	if len(b) < headerLen || [4]byte(b[:4]) != magic {
		return "", nil, 0, fmt.Errorf("store: %s: bad magic or truncated header", path)
	}
	version := binary.LittleEndian.Uint32(b[4:8])
	keyLen := binary.LittleEndian.Uint32(b[8:12])
	valLen := binary.LittleEndian.Uint32(b[12:16])
	crc := binary.LittleEndian.Uint32(b[16:20])
	if version != FormatVersion {
		return "", nil, 0, fmt.Errorf("store: %s: format version %d, want %d", path, version, FormatVersion)
	}
	if uint64(len(b)) != headerLen+uint64(keyLen)+uint64(valLen) {
		return "", nil, 0, fmt.Errorf("store: %s: torn entry (%d bytes, header claims %d)", path, len(b), headerLen+keyLen+valLen)
	}
	key = string(b[headerLen : headerLen+keyLen])
	val = b[headerLen+keyLen:]
	if crc32.ChecksumIEEE(val) != crc {
		return "", nil, 0, fmt.Errorf("store: %s: value checksum mismatch", path)
	}
	return key, val, int64(len(b)), nil
}

// encodeEntry builds the on-disk bytes for one entry.
func encodeEntry(key string, val []byte) []byte {
	b := make([]byte, headerLen+len(key)+len(val))
	copy(b[:4], magic[:])
	binary.LittleEndian.PutUint32(b[4:8], FormatVersion)
	binary.LittleEndian.PutUint32(b[8:12], uint32(len(key)))
	binary.LittleEndian.PutUint32(b[12:16], uint32(len(val)))
	binary.LittleEndian.PutUint32(b[16:20], crc32.ChecksumIEEE(val))
	copy(b[headerLen:], key)
	copy(b[headerLen+len(key):], val)
	return b
}

// Get returns the stored value for key, from the index or, on an index
// miss, from an entry file a process sharing the directory wrote. A
// missing, vanished, unreadable, or corrupted entry is a miss (and an
// indexed corrupted one is deleted); the caller recomputes and Puts.
func (s *Store) Get(key string) ([]byte, bool) {
	e, gen := s.touch(key)
	if e == nil {
		return s.adopt(key)
	}
	gotKey, val, _, err := readEntry(e.path)
	if err != nil || gotKey != key {
		// The file went bad underneath us (or a hash-prefix collision):
		// drop it so the slot recomputes cleanly.
		if s.drop(e) {
			unlink(e)
		}
		s.misses.Add(1)
		return nil, false
	}
	stamp(e.path, gen)
	s.hits.Add(1)
	return val, true
}

// adopt serves an index miss from key's entry file, which a live process
// sharing the directory may have written since Open, and indexes it as a
// hit. A missing or unsound file is a miss; an unsound one is left for
// the caller's Put to replace.
func (s *Store) adopt(key string) ([]byte, bool) {
	path := filepath.Join(s.dir, entryName(key))
	gotKey, val, size, err := readEntry(path)
	if err != nil || gotKey != key {
		s.misses.Add(1)
		return nil, false
	}
	gen, victims, _ := s.publish(&entry{key: key, path: path, size: size})
	stamp(path, gen)
	unlink(victims...)
	s.hits.Add(1)
	return val, true
}

// Has reports whether key is in this store's index, without reading the
// entry, touching recency, or counting a hit or miss — an admission probe,
// not a lookup. It does no I/O, so an entry a live peer wrote reads false
// until a Get indexes it, and a later Get can still miss (the file may
// have gone bad underneath): callers treating Has as a promise must
// tolerate a recompute.
//
//ndavet:hotpath
func (s *Store) Has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[key]
	return ok
}

// Put stores val under key. The write is atomic (temp file + fsync +
// rename), idempotent (an existing entry is only touched — values are
// content-addressed, so rewriting could change nothing), and best-effort:
// an I/O failure counts on PutErrors and the value simply stays uncached.
func (s *Store) Put(key string, val []byte) {
	if e, gen := s.touch(key); e != nil {
		stamp(e.path, gen)
		return
	}
	path := filepath.Join(s.dir, entryName(key))
	b := encodeEntry(key, val)
	if err := s.writeAtomic(path, b); err != nil {
		s.putErrors.Add(1)
		return
	}
	gen, victims, added := s.publish(&entry{key: key, path: path, size: int64(len(b))})
	if added {
		s.puts.Add(1)
	}
	stamp(path, gen)
	unlink(victims...)
}

// writeAtomic lands b at path via temp file, fsync, rename, and a
// best-effort directory sync, so a crash at any point leaves either the
// whole entry or a temp file Open will sweep.
func (s *Store) writeAtomic(path string, b []byte) error {
	f, err := os.CreateTemp(s.dir, tmpPrefix)
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(b); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	if d, err := os.Open(s.dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// touch looks key up and, if present, makes it the most recent entry,
// returning it with its new stamp.
func (s *Store) touch(key string) (*entry, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[key]
	if e == nil {
		return nil, 0
	}
	s.clock++
	e.gen = s.clock
	return e, s.clock
}

// publish indexes a freshly written or adopted entry as the most recent
// one and returns its stamp with the victims its bytes push over budget,
// and whether it indexed e. If a concurrent Put or adopt of the same key
// published first, that entry wins and is only touched: both name the
// same content-addressed file.
func (s *Store) publish(e *entry) (gen int64, victims []*entry, added bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.clock++
	if won := s.entries[e.key]; won != nil {
		won.gen = s.clock
		return s.clock, nil, false
	}
	e.gen = s.clock
	s.entries[e.key] = e
	s.bytes += e.size
	return s.clock, s.evictOver(e.key), true
}

// drop unindexes e, whose file failed to read, unless a concurrent
// eviction or Put has already replaced it; it reports whether it did.
func (s *Store) drop(e *entry) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.entries[e.key] != e {
		return false
	}
	delete(s.entries, e.key)
	s.bytes -= e.size
	return true
}

// evictOver unindexes least-recently-used entries, oldest (gen, file
// name) first, until the byte budget holds, and returns them for the
// caller to unlink once it no longer holds the lock. keep, when
// non-empty, shields the entry just written — unless it alone exceeds the
// whole budget, in which case it goes too (a value bigger than the store
// must not wedge it permanently over). The caller holds s.mu, or owns s
// outright.
func (s *Store) evictOver(keep string) []*entry {
	var victims []*entry
	for s.bytes > s.max && len(s.entries) > 0 {
		var victim *entry
		for _, e := range s.entries {
			if e.key == keep && len(s.entries) > 1 {
				continue
			}
			if victim == nil || e.gen < victim.gen || e.gen == victim.gen && e.path < victim.path {
				victim = e
			}
		}
		delete(s.entries, victim.key)
		s.bytes -= victim.size
		s.evictions.Add(1)
		s.evictedBytes.Add(victim.size)
		victims = append(victims, victim)
	}
	return victims
}

// unlink deletes the files of entries already removed from the index.
func unlink(victims ...*entry) {
	for _, e := range victims {
		_ = os.Remove(e.path)
	}
}

// stamp records a touch as the entry file's mtime so recency survives a
// restart. It is advisory: a lost or reordered stamp only blurs eviction
// order after the next Open.
func stamp(path string, gen int64) {
	_ = os.Chtimes(path, time.Time{}, time.Unix(gen, 0))
}

// Counters snapshots the store's accounting.
func (s *Store) Counters() Counters {
	s.mu.Lock()
	entries, bytes := len(s.entries), s.bytes
	s.mu.Unlock()
	return Counters{
		Entries:       entries,
		Bytes:         bytes,
		MaxBytes:      s.max,
		Hits:          s.hits.Load(),
		Misses:        s.misses.Load(),
		Puts:          s.puts.Load(),
		PutErrors:     s.putErrors.Load(),
		Evictions:     s.evictions.Load(),
		EvictedBytes:  s.evictedBytes.Load(),
		DroppedOnOpen: s.droppedOnOpen.Load(),
	}
}

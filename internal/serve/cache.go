package serve

import (
	"container/list"
	"context"
	"encoding/json"
	"sync"
)

// Tier is one persistent cache level under the in-RAM LRU: the local disk
// store (internal/store), the fleet-shared store, or any other key/value
// layer keyed by the same Key(...) hashes. Every method is best-effort — a
// tier that misses or fails simply pushes the request to the next level,
// and finally to compute.
type Tier interface {
	Get(key string) ([]byte, bool)
	Put(key string, val []byte)
	// Has reports presence without reading the value (the admission
	// probe).
	Has(key string) bool
}

// HitTier reports which level served a cache lookup.
type HitTier int

const (
	// Computed: every tier missed; the compute callback ran (locally or
	// as a fleet dispatch).
	Computed HitTier = iota
	// HitRAM: served from the in-process LRU, including joins on another
	// caller's in-flight computation (the work ran once, not per caller).
	HitRAM
	// HitDisk: missed RAM, served from the local disk store.
	HitDisk
	// HitShared: missed RAM and disk, served from the fleet-shared store
	// without dispatching to any worker.
	HitShared
)

// Cache is the content-addressed result store with singleflight
// deduplication and an LRU entry cap. Values are keyed by Key(...) hashes
// of their full input description, so a hit is by construction the same
// result a fresh simulation would produce.
//
// Concurrency contract: the first caller of Do for a key computes the
// value; concurrent callers for the same key block until that computation
// finishes and then share the result (a dedup hit — the work ran once).
// Failed computations are not cached: the entry is removed before waiters
// wake, and each waiter retries, so a job cancelled mid-flight never
// poisons the cache for later requests.
//
// Bounding: a long-lived coordinator sees an unbounded stream of distinct
// cells, so ready entries beyond the cap are evicted least-recently-used.
// In-flight entries are pinned (they are not results yet and other callers
// may be joined on them); they enter the LRU order when they complete.
// Eviction affects only memory and future hit rates — a re-asked evicted
// cell recomputes to the identical value, or reloads from the disk tier
// for free when one is configured.
type Cache struct {
	mu      sync.Mutex
	max     int // > 0; ready entries beyond this are evicted LRU
	m       map[string]*cacheEntry
	lru     list.List           // ready entries, front = most recently used
	bytes   int64               // sum of ready entries' encoding lengths
	onEvict func(sizeBytes int) // optional eviction hook (metrics)
}

type cacheEntry struct {
	key   string
	ready chan struct{} // closed when val/enc/err are final
	val   any
	enc   []byte // val's canonical JSON, when DoTiered was asked to keep it
	size  int    // len of val's canonical JSON; 0 for Do entries, which are never encoded
	err   error
	elem  *list.Element // nil while in flight
}

// DefaultCacheMaxEntries is the generous default cap: far above any single
// evaluation's cell count, small enough that a coordinator serving heavy
// traffic for months stays bounded.
const DefaultCacheMaxEntries = 1 << 16

// NewCache returns an empty cache holding at most max ready entries
// (max <= 0 means DefaultCacheMaxEntries). onEvict, if non-nil, is called
// once per evicted entry with the length of the entry's encoding — 0 for
// Do entries, which are never encoded — so the metrics layer can account
// the RAM tier in bytes as well as entries, mirroring the disk tier.
func NewCache(max int, onEvict func(sizeBytes int)) *Cache {
	if max <= 0 {
		max = DefaultCacheMaxEntries
	}
	return &Cache{max: max, m: make(map[string]*cacheEntry), onEvict: onEvict}
}

// Len returns the number of cached (successful) or in-flight entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Bytes returns the total length of ready entries' canonical encodings.
// Every DoTiered entry (every cell result) is encoded once, tiers or not,
// and counts its encoding's length whether it keeps the bytes or not; Do
// entries (checkpoint series) are never encoded and count zero.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Contains reports whether key is resident and ready (a guaranteed RAM
// hit) without touching recency or joining a flight. In-flight entries
// report false: a caller probing for admission cannot count on a
// computation that may still fail or be cancelled.
func (c *Cache) Contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	return ok && e.elem != nil
}

// Do returns the cached value for key, joining an in-flight computation if
// one exists, or computes it by calling compute. hit reports whether the
// value was served without running compute in this call — a warm cache
// entry or a join on another caller's flight. Waiting is bounded by ctx;
// compute itself is responsible for observing ctx (the simulation runners
// pass it down to the cores). The value is never encoded: Do serves
// in-process intermediates, such as checkpoint series, that no response
// carries.
func (c *Cache) Do(ctx context.Context, key string, compute func() (any, error)) (v any, hit bool, err error) {
	v, _, tier, err := c.do(ctx, key, nil, nil, compute, false, false)
	return v, tier == HitRAM, err
}

// DoTiered is Do over an ordered chain of persistent levels under the RAM
// tier. On a RAM miss it walks tiers in order, skipping nil levels: the
// first stored value that decode accepts is installed into RAM, written
// back into every level before the one that held it, and reported as
// HitDisk+i for tiers[i] (the manager passes [disk, fleet-shared]). An
// entry decode rejects — corrupt or alien bytes — counts as a miss and the
// walk moves on. When every level misses, compute runs.
//
// Every entry DoTiered installs is encoded once, canonically
// (json.Marshal of the value): a computed value's encoding is the one
// written into every level, and a value a level held is decoded and
// encoded again. Bytes from outside the process are never kept or
// written back verbatim, so a level holding decodable but non-canonical
// bytes (extra whitespace, a trailing newline) still yields canonical
// ones. A value that does not encode fails the call, like a failed
// compute, and is not cached. With keep, the entry keeps the encoding
// and every call returns it as enc, so a caller can splice a response
// from cell encodings without encoding again; without keep, enc is nil
// and the entry holds only the value.
func (c *Cache) DoTiered(ctx context.Context, key string, tiers []Tier, decode func([]byte) (any, error), compute func() (any, error), keep bool) (v any, enc []byte, tier HitTier, err error) {
	return c.do(ctx, key, tiers, decode, compute, true, keep)
}

// do is Do (encode and keep false) and DoTiered (encode true).
func (c *Cache) do(ctx context.Context, key string, tiers []Tier, decode func([]byte) (any, error), compute func() (any, error), encode, keep bool) (v any, enc []byte, tier HitTier, err error) {
	for {
		c.mu.Lock()
		if e, ok := c.m[key]; ok {
			c.touch(e)
			c.mu.Unlock()
			// A ready entry is served whatever ctx says; only a wait on
			// an in-flight one is bounded by it.
			select {
			case <-e.ready:
			default:
				select {
				case <-e.ready:
				case <-ctx.Done():
					return nil, nil, Computed, ctx.Err()
				}
			}
			if e.err == nil {
				return e.val, e.enc, HitRAM, nil
			}
			// The owner failed (possibly its own cancellation). The
			// entry is already gone; retry under our context.
			if cerr := ctx.Err(); cerr != nil {
				return nil, nil, Computed, cerr
			}
			continue
		}
		e := &cacheEntry{key: key, ready: make(chan struct{})}
		c.m[key] = e
		c.mu.Unlock()

		tier = Computed
		for i, t := range tiers {
			if t == nil {
				continue
			}
			b, ok := t.Get(key)
			if !ok {
				continue
			}
			dv, derr := decode(b)
			if derr != nil {
				continue
			}
			enc, merr := json.Marshal(dv)
			if merr != nil {
				continue
			}
			e.val, e.size, tier = dv, len(enc), HitDisk+HitTier(i)
			if keep {
				e.enc = enc
			}
			for _, up := range tiers[:i] {
				if up != nil {
					up.Put(key, enc)
				}
			}
			break
		}
		if tier == Computed {
			e.val, e.err = compute()
			if e.err == nil && encode {
				var enc []byte
				if enc, e.err = json.Marshal(e.val); e.err == nil {
					e.size = len(enc)
					if keep {
						e.enc = enc
					}
					for _, t := range tiers {
						if t != nil {
							t.Put(key, enc)
						}
					}
				}
			}
		}

		c.mu.Lock()
		if e.err != nil {
			delete(c.m, key)
		} else {
			e.elem = c.lru.PushFront(e)
			c.bytes += int64(e.size)
			c.evictOver()
		}
		c.mu.Unlock()
		close(e.ready)
		return e.val, e.enc, tier, e.err
	}
}

// touch marks a ready entry most-recently-used. Called with c.mu held.
func (c *Cache) touch(e *cacheEntry) {
	if e.elem != nil {
		c.lru.MoveToFront(e.elem)
	}
}

// evictOver drops least-recently-used ready entries until the cap holds.
// Called with c.mu held. Waiters already joined on an evicted entry keep
// their reference and still receive its value; only the map loses it.
func (c *Cache) evictOver() {
	for c.lru.Len() > c.max {
		back := c.lru.Back()
		if back == nil {
			return
		}
		e := c.lru.Remove(back).(*cacheEntry)
		e.elem = nil
		delete(c.m, e.key)
		c.bytes -= int64(e.size)
		if c.onEvict != nil {
			c.onEvict(e.size)
		}
	}
}

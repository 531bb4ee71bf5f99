package serve

import (
	"container/list"
	"context"
	"sync"
)

// Cache is the in-RAM level of the result store: a singleflight LRU of
// opaque entries keyed by Key(...) hashes. It handles memory and
// concurrency only. What an entry holds, where a missing one comes from
// (the persistent tiers, compute, the fleet) and how it is encoded are the
// fill callback's business; Manager.resolve owns all of that.
//
// Concurrency contract: the first caller of Do for a key runs fill;
// concurrent callers for the same key block until that fill finishes and
// then share the entry (a RAM hit — the work ran once). A failed fill is
// not cached: the entry is removed before waiters wake, and each waiter
// retries, so a job cancelled mid-flight never poisons the cache for
// later requests.
//
// Bounding: a long-lived coordinator sees an unbounded stream of distinct
// cells, so ready entries beyond the cap are evicted least-recently-used.
// In-flight entries are pinned (they are not results yet and other callers
// may be joined on them); they enter the LRU order when they complete.
// Eviction affects only memory and future hit rates — a re-asked evicted
// cell is filled again to the identical value.
type Cache struct {
	mu      sync.Mutex
	max     int // > 0; ready entries beyond this are evicted LRU
	m       map[string]*cacheEntry
	lru     list.List           // ready entries, front = most recently used
	bytes   int64               // sum of ready entries' sizes
	onEvict func(sizeBytes int) // optional eviction hook (metrics)
}

// cacheEntry keeps its value and encoding in separate fields, not a boxed
// pair, so installing one costs no allocation beyond the entry itself.
type cacheEntry struct {
	key   string
	ready chan struct{} // closed when val/enc/size/err are final
	val   any
	enc   []byte // the encoding fill chose to keep, or nil
	size  int    // what fill said the entry counts in Bytes
	err   error
	elem  *list.Element // nil while in flight
}

// DefaultCacheMaxEntries is the generous default cap: far above any single
// evaluation's cell count, small enough that a coordinator serving heavy
// traffic for months stays bounded.
const DefaultCacheMaxEntries = 1 << 16

// NewCache returns an empty cache holding at most max ready entries
// (max <= 0 means DefaultCacheMaxEntries). onEvict, if non-nil, is called
// once per evicted entry with the size its fill reported, so the metrics
// layer can account the RAM tier in bytes as well as entries, mirroring
// the disk tier.
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

// Bytes returns the sum of ready entries' sizes, as their fills reported
// them. The manager reports a cell's canonical encoding length, kept or
// not, and zero for a checkpoint series.
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

// Do returns the entry for key, joining an in-flight fill if one exists,
// or runs fill to make it. fill returns the value, the encoding the entry
// keeps (nil for none), the size the entry counts in Bytes, and an error.
// hit reports whether the entry was served without running fill in this
// call — a ready entry or a join on another caller's flight. A ready entry
// is served whatever ctx says; only a wait on a flight is bounded by it.
// fill itself is responsible for observing ctx (the simulation runners
// pass it down to the cores).
func (c *Cache) Do(ctx context.Context, key string, fill func() (v any, enc []byte, size int, err error)) (v any, enc []byte, hit bool, err error) {
	for {
		c.mu.Lock()
		if e, ok := c.m[key]; ok {
			c.touch(e)
			c.mu.Unlock()
			select {
			case <-e.ready:
			default:
				select {
				case <-e.ready:
				case <-ctx.Done():
					return nil, nil, false, ctx.Err()
				}
			}
			if e.err == nil {
				return e.val, e.enc, true, nil
			}
			// The owner failed (possibly its own cancellation). The
			// entry is already gone; retry under our context.
			if cerr := ctx.Err(); cerr != nil {
				return nil, nil, false, cerr
			}
			continue
		}
		e := &cacheEntry{key: key, ready: make(chan struct{})}
		c.m[key] = e
		c.mu.Unlock()

		e.val, e.enc, e.size, e.err = fill()

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
		return e.val, e.enc, false, e.err
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

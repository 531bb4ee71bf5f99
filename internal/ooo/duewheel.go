package ooo

import "math/bits"

// dueWheel holds the issued, not yet completed entries by the cycle their
// execution finishes: a ring of per-cycle buckets, each a bitmask over ROB
// ring slots, one bucket per cycle of a window longer than any execution
// latency, so each pending cycle has a bucket of its own. Completion takes
// the current cycle's bucket and the event horizon the first nonempty one:
// neither touches an entry that is not due.
type dueWheel struct {
	buckets []uint64 // bucket b is buckets[b*words:][:words]
	words   int
	full    []uint64 // bit b: bucket b is nonempty
	mask    uint64   // buckets - 1; the count is a power of two
}

// newDueWheel builds a wheel for latencies up to maxLatency over a ROB of
// words*64 slots or fewer.
func newDueWheel(maxLatency, words int) dueWheel {
	n := 64
	for n < maxLatency+2 {
		n *= 2
	}
	return dueWheel{buckets: make([]uint64, n*words), words: words, full: make([]uint64, n/64), mask: uint64(n - 1)}
}

func (d *dueWheel) bucket(b int) []uint64 {
	return d.buckets[b*d.words : (b+1)*d.words : (b+1)*d.words]
}

// add files slot under at, the cycle its execution finishes. now is the
// current cycle: an entry due by then completes in the next one, as a scan
// for CompleteAt <= cycle would find it.
func (d *dueWheel) add(at, now uint64, slot int32) {
	if at <= now {
		at = now + 1
	}
	if at-now > d.mask {
		panic("ooo: execution latency beyond the completion wheel")
	}
	b := int(at & d.mask)
	d.bucket(b)[slot>>6] |= 1 << (slot & 63)
	d.full[b>>6] |= 1 << (b & 63)
}

// take returns the bucket of cycle now, or nil if it is empty, and marks
// it empty: the caller reads it and clears it.
func (d *dueWheel) take(now uint64) []uint64 {
	b := int(now & d.mask)
	if d.full[b>>6]&(1<<(b&63)) == 0 {
		return nil
	}
	d.full[b>>6] &^= 1 << (b & 63)
	return d.bucket(b)
}

// next returns the earliest cycle after now at which an entry completes,
// and false if none is executing.
func (d *dueWheel) next(now uint64) (uint64, bool) {
	// The buckets in cycle order from now+1: the full bits from that
	// bucket's up, then from bit 0.
	from := int((now + 1) & d.mask)
	w := from >> 6
	word := d.full[w] &^ (1<<(from&63) - 1)
	for k := 0; word == 0; k++ {
		if k == len(d.full) {
			return 0, false
		}
		if w++; w == len(d.full) {
			w = 0
		}
		word = d.full[w]
	}
	b := w<<6 + bits.TrailingZeros64(word)
	return now + 1 + (uint64(b-from) & d.mask), true
}

// drop takes ring slots lo..hi-1 out of every bucket.
func (d *dueWheel) drop(lo, hi int) {
	for fw, word := range d.full {
		for ; word != 0; word &= word - 1 {
			b := fw<<6 + bits.TrailingZeros64(word)
			q := d.bucket(b)
			clearRange(q, lo, hi)
			if isEmpty(q) {
				d.full[fw] &^= 1 << (b & 63)
			}
		}
	}
}

// reset empties every bucket.
func (d *dueWheel) reset() {
	for fw, word := range d.full {
		for ; word != 0; word &= word - 1 {
			clear(d.bucket(fw<<6 + bits.TrailingZeros64(word)))
		}
	}
	clear(d.full)
}

// clearRange clears bits lo..hi-1 of the bitmask q.
func clearRange(q []uint64, lo, hi int) {
	for lo < hi {
		w := lo >> 6
		m := ^uint64(0) << (lo & 63)
		if end := (w + 1) << 6; hi < end {
			m &= 1<<(hi&63) - 1
			lo = hi
		} else {
			lo = end
		}
		q[w] &^= m
	}
}

func isEmpty(q []uint64) bool {
	for _, w := range q {
		if w != 0 {
			return false
		}
	}
	return true
}

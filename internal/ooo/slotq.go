package ooo

// slotQueue is a list of ROB ring slots (Entry.Slot) whose capacity is
// fixed when the core is built. Every operation is an index write into the
// one backing array, so no scheduler or side list can grow on the hot path.
// Pushing past the capacity panics; callers bound each queue by a resource
// check (IQSize, LQSize, SQSize) or by the ROB size itself.
type slotQueue struct {
	s []int32 // backing array: len(s) is the capacity, s[:n] the contents
	n int
}

func newSlotQueue(capacity int) slotQueue { return slotQueue{s: make([]int32, capacity)} }

// emptied returns an empty queue over the same backing array.
func (q *slotQueue) emptied() slotQueue { return slotQueue{s: q.s} }

// slots returns the contents, oldest (or first pushed) first. The slice
// aliases the queue and is valid until its next change.
func (q *slotQueue) slots() []int32 { return q.s[:q.n] }

// head returns the first slot; the queue must not be empty.
func (q *slotQueue) head() int32 { return q.s[0] }

func (q *slotQueue) push(slot int32) {
	q.s[q.n] = slot
	q.n++
}

// insert places slot by its entry's Seq, keeping an age-ordered queue in
// age order. Entries usually arrive youngest-last, so the scan runs from
// the tail.
func (q *slotQueue) insert(rob []Entry, slot int32) {
	seq := rob[slot].Seq
	i := q.n
	for i > 0 && rob[q.s[i-1]].Seq > seq {
		q.s[i] = q.s[i-1]
		i--
	}
	q.s[i] = slot
	q.n++
}

// removeAt drops the i-th slot, keeping the order of the rest.
func (q *slotQueue) removeAt(i int) {
	copy(q.s[i:q.n], q.s[i+1:q.n])
	q.n--
}

// remove drops slot if the queue holds it, and reports whether it did.
func (q *slotQueue) remove(slot int32) bool {
	for i := 0; i < q.n; i++ {
		if q.s[i] == slot {
			q.removeAt(i)
			return true
		}
	}
	return false
}

// filter drops every slot whose entry has Seq >= seq: the squash of
// everything from seq on. It must run before the squash resets the
// entries, since reset zeroes the Seq it keys on.
func (q *slotQueue) filter(rob []Entry, seq uint64) {
	k := 0
	for _, slot := range q.s[:q.n] {
		if rob[slot].Seq < seq {
			q.s[k] = slot
			k++
		}
	}
	q.n = k
}

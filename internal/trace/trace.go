// Package trace collects per-instruction pipeline life-cycle records from
// the out-of-order core and renders them as a text pipeline diagram —
// a quick way to *see* what an NDA policy does to the schedule: under
// strict propagation the gap between an instruction's C (complete) and B
// (broadcast) is the deferred wake-up the paper's Fig. 2 describes.
package trace

import (
	"fmt"
	"strings"

	"nda/internal/ooo"
)

// Collector accumulates retirement records from a core, keeping at most
// Limit (0 = unlimited).
type Collector struct {
	Limit   int
	Records []ooo.TraceEvent
}

// Attach installs the collector on a core. Records accumulate from the next
// retirement on; a faulting instruction's record (Fault set) is skipped,
// since the fault squashes the instruction instead of retiring it.
func (t *Collector) Attach(c *ooo.Core) {
	c.TraceRetire = func(ev ooo.TraceEvent) {
		if ev.Fault != 0 || (t.Limit > 0 && len(t.Records) >= t.Limit) {
			return
		}
		t.Records = append(t.Records, ev)
	}
}

// Stage letters in the diagram:
//
//	F fetch   D dispatch   I issue   C complete   B broadcast   R retire
//	= between issue and complete (executing)
//	. elsewhere within the instruction's lifetime
const legend = "F=fetch D=dispatch I=issue ==executing C=complete B=broadcast R=retire"

// Render draws the records as one line per instruction against a shared
// cycle axis, clipping the window to maxWidth columns.
func (t *Collector) Render(maxWidth int) string {
	if len(t.Records) == 0 {
		return "trace: no records\n"
	}
	if maxWidth <= 0 {
		maxWidth = 120
	}
	start := t.Records[0].Fetch
	end := t.Records[0].Retire
	for _, r := range t.Records {
		if r.Fetch < start {
			start = r.Fetch
		}
		if r.Retire > end {
			end = r.Retire
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "pipeline trace: %d instructions, cycles %d..%d (%s)\n\n",
		len(t.Records), start, end, legend)
	for _, r := range t.Records {
		fmt.Fprintf(&b, "%6d %#08x %-24s %s\n", r.Seq, r.PC, clip(r.Inst.String(), 24), lane(r, start, maxWidth))
	}
	return b.String()
}

func clip(s string, n int) string {
	if len(s) > n {
		return s[:n-1] + "…"
	}
	return s
}

// lane renders one instruction's row. Cycles beyond the window are clipped
// with '>'.
func lane(r ooo.TraceEvent, start uint64, width int) string {
	col := func(cyc uint64) int { return int(cyc - start) }
	lastCol := col(r.Retire)
	clipped := false
	if lastCol >= width {
		lastCol = width - 1
		clipped = true
	}
	row := make([]byte, lastCol+1)
	for i := range row {
		row[i] = ' '
	}
	put := func(cyc uint64, ch byte) {
		c := col(cyc)
		if c < 0 {
			return
		}
		if c > lastCol {
			c = lastCol
		}
		row[c] = ch
	}
	// Fill the lifetime, then executing span, then milestones on top.
	for c := col(r.Fetch); c <= lastCol && c >= 0; c++ {
		row[c] = '.'
	}
	for c := col(r.Issue); c >= 0 && c <= lastCol && uint64(c)+start <= r.Complete; c++ {
		row[c] = '='
	}
	put(r.Fetch, 'F')
	put(r.Dispatch, 'D')
	put(r.Issue, 'I')
	put(r.Complete, 'C')
	if r.Broadcast > 0 {
		put(r.Broadcast, 'B')
	}
	put(r.Retire, 'R')
	if clipped {
		row[lastCol] = '>'
	}
	return string(row)
}

// BroadcastDeferral returns the mean complete→broadcast gap over recorded
// register-producing instructions — the visible footprint of an NDA policy.
func (t *Collector) BroadcastDeferral() float64 {
	var sum, n float64
	for _, r := range t.Records {
		if r.Broadcast >= r.Complete && r.Broadcast > 0 {
			sum += float64(r.Broadcast - r.Complete)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

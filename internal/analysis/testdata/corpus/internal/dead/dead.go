// Package dead is the deadlint corpus. It sits under internal/, so none
// of its exported names is a root by itself: each function here is
// reached through one kind of reference, or is a finding.
package dead

import "fmt"

// Widget is aliased by the facade (corpus.Widget), so its exported
// methods are reached.
type Widget struct{ n int }

// Size reaches square.area only through an interface call.
func (w *Widget) Size() int { return w.shape().area() }

type shape interface{ area() int }

type square struct{ side int }

func (s square) area() int { return s.side * s.side }

func (w *Widget) shape() shape { return square{w.n} }

// Scale reaches double only as a func value.
func (w *Widget) Scale() int { return apply(double, w.n) }

func apply(f func(int) int, x int) int { return f(x) }

func double(x int) int { return 2 * x }

// Counter reaches bump only as a method value.
func (w *Widget) Counter() func() int { return w.bump }

func (w *Widget) bump() int {
	w.n++
	return w.n
}

// Later reaches triple only from inside a function literal.
func (w *Widget) Later() func() int { return func() int { return triple(w.n) } }

func triple(x int) int { return 3 * x }

// greetings and measure reach hello and (*Widget).measure from var
// initializers, the second through a method expression.
var (
	greetings = map[string]func() string{"hello": hello}
	measure   = (*Widget).measure
)

func hello() string { return "hello" }

func (w *Widget) measure() int { return w.n }

// BenchOnly is referenced only by the caller module in bench/.
func BenchOnly() int { return 1 }

// Label's String is reached through fmt.Stringer, which fmt calls.
type Label int

func (l Label) String() string { return fmt.Sprint(int(l)) }

// Orphan is called by nothing.
func Orphan() int { return 0 } // want "nothing reaches internal/dead.Orphan"

// TestOnly is called only by dead_test.go, and tests are not roots.
func TestOnly() int { return 0 } // want "nothing reaches internal/dead.TestOnly"

// Reference is the sanctioned exception: a reference implementation a
// test would compare a fast path against.
//
//ndavet:allow deadlint corpus example of a test reference implementation
func Reference() int { return 0 }

// Reached carries an annotation that grants nothing, since the facade
// alias reaches it.
//
//ndavet:allow deadlint the function is reached, so this grant is stale; want "unused //ndavet:allow deadlint"
func (w *Widget) Reached() int { return 0 }

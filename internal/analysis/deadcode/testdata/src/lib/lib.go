// Package lib is the deadcode fixture's library; app imports it.
package lib

import "fmt"

// Shape is named in app, so every Area method satisfies an interface.
type Shape interface{ Area() float64 }

// Square is built by app.
type Square struct {
	Side    float64
	Label   string // want `field Square.Label is never read outside tests`
	Written int    // want `field Square.Written is never read outside tests`
}

// Area is exempt: it satisfies Shape.
func (s Square) Area() float64 { return s.Side * s.Side }

// String is exempt: fmt calls it dynamically.
func (s Square) String() string { return fmt.Sprint(s.Side) }

func (s Square) Perimeter() float64 { return 4 * s.Side } // want `Square.Perimeter has no reference outside tests`

// Used is read by app.
const Used = 2

const Limit = 3 // want `Limit has no reference outside tests`

// Total is called by app.
func Total(shapes []Shape) float64 {
	var t float64
	for _, s := range shapes {
		t += s.Area()
	}
	return t * Scale()
}

// Scale is exempt: Total, in its own package, calls it.
func Scale() float64 { return 1 }

func Unused() {} // want `Unused has no reference outside tests`

func OnlyTested() {} // want `OnlyTested has no reference outside tests`

// Hatched is kept on purpose.
//
//lint:deadcode fixture: a deliberate keeper
func Hatched() {}

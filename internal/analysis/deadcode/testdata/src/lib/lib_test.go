package lib

import "testing"

// TestOnly is the only reference to OnlyTested and to Square.Label: a
// reference from a _test.go file does not keep code alive.
func TestOnly(t *testing.T) {
	OnlyTested()
	if (Square{Label: "x"}).Label != "x" {
		t.Fatal("label lost")
	}
}

// Command app is the fixture's production code: what it references is
// alive.
package main

import (
	"fmt"

	"repro/internal/analysis/deadcode/testdata/src/lib"
)

func main() {
	sq := lib.Square{Side: 2, Written: 1}
	sq.Written++
	var s lib.Shape = sq
	fmt.Println(s, lib.Total([]lib.Shape{s}), lib.Used)
}

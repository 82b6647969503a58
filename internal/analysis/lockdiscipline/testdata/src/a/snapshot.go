// Snapshot write-once fixture: a miniature RCU epoch. Builders filling a
// fresh composite-literal local stay quiet; any write through an already
// published (or merely non-fresh) snapshot value is flagged, including map
// inserts, slice-element stores, appends and increments.
package a

import "sync/atomic"

// epoch is one published view.
//
// cosmoslint:snapshot
type epoch struct {
	seq   int
	names []string
	dirs  map[int]*dirView
}

// dirView is the per-direction slice of an epoch. cosmoslint:snapshot
type dirView struct {
	cands []int
}

// plain is an ordinary mutable type: writes through it are not checked.
type plain struct {
	n int
}

type owner struct {
	cur atomic.Pointer[epoch]
}

// rebuild is the compliant builder: the locals come from snapshot
// composite literals in this same function, so filling them is allowed.
func (o *owner) rebuild(names []string) {
	next := &epoch{dirs: map[int]*dirView{}}
	next.seq = 1
	next.names = append(next.names, names...)
	dv := &dirView{}
	dv.cands = append(dv.cands, len(names))
	next.dirs[0] = dv
	o.cur.Store(next)
}

// mutateLoaded writes through a loaded epoch: flagged on every shape.
func (o *owner) mutateLoaded(k int) {
	e := o.cur.Load()
	e.seq++                        // want `write through cosmoslint:snapshot type epoch outside its builder`
	e.names = append(e.names, "x") // want `write through cosmoslint:snapshot type epoch outside its builder`
	e.dirs[k] = &dirView{}         // want `write through cosmoslint:snapshot type epoch outside its builder`
	e.dirs[k].cands[0] = 7         // want `write through cosmoslint:snapshot type dirView outside its builder`
}

// mutateParam writes through a snapshot parameter — not constructed here,
// so not provably unpublished.
func mutateParam(dv *dirView) {
	dv.cands = nil // want `write through cosmoslint:snapshot type dirView outside its builder`
}

// plainWrites exercises the negative space: ordinary types and plain
// locals never trip the rule.
func plainWrites(p *plain) {
	p.n++
	xs := []int{1}
	xs[0] = 2
	xs = append(xs, 3)
	_ = xs
}

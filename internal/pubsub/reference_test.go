package pubsub

// The linear reference matcher's selector. The equivalence suites compare
// the production index against it bit for bit; it is not a runtime option,
// so the setters live here, in test code.

// setLinearMatching switches the broker between the inverted matching index
// and the retained linear reference matcher. Both produce identical
// forwarding decisions, deliveries and traffic.
func (b *Broker) setLinearMatching(on bool) {
	b.mu.Lock()
	b.linearMatch = on
	if !on {
		// The linear reference left no epoch: start from an empty one and
		// re-derive every stream's entry.
		b.snap.Store(&matchSnapshot{})
		b.snapNeighbors = true
		for _, d := range b.idx.dirs {
			for s := range d.byStream {
				b.idx.dirty[s] = true
			}
		}
		for s := range b.idx.locals.byStream {
			b.idx.dirty[s] = true
		}
	}
	b.publishLocked()
	b.mu.Unlock()
}

// setLinearMatching flips every broker of the overlay (see
// Broker.setLinearMatching). Brokers joined later are not affected.
func (net *Network) setLinearMatching(on bool) {
	for _, n := range net.Nodes() {
		b, _ := net.Broker(n)
		b.setLinearMatching(on)
	}
}

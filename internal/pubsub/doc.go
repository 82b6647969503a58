// Package pubsub implements the content-based Publish/Subscribe substrate
// COSMOS is built on (§1.2, §2): a Siena-style broker overlay where data
// sources advertise streams, consumers subscribe with content filters, and
// messages are routed hop by hop so that (1) a message crosses each overlay
// link at most once, (2) messages are filtered as early as possible on the
// way to interested parties, and (3) unnecessary attributes are projected
// away as early as possible. Per-link traffic is accounted so experiments
// can measure weighted communication cost on the overlay.
//
// The package splits into four layers, roughly one file group each:
//
//   - The protocol, one file per lifecycle: broker.go (the types, the
//     Peer/Fabric seam, neighbor attach and crash detach, introspection),
//     advert.go (advertise, withdraw, replay), subscribe.go (subscribe,
//     retract, propagate, covering and un-suppression), route.go (publish
//     and forward), subscription.go. Broker implements the five peer
//     messages — AdvertFrom, UnadvertFrom, PropagateFrom, RetractFrom,
//     RouteFrom — plus the client surface (Advertise, Subscribe,
//     Unsubscribe, Publish). Subscriptions carry epoch sequence numbers and
//     propagation records; adverts are epoch-stamped per (stream, origin).
//     Covering relations suppress redundant propagation, and every
//     lifecycle transition (retraction, withdrawal, crash teardown)
//     re-decides exactly the suppressions it released.
//
//   - The matching engine (index.go, attrindex.go): per direction, stream →
//     posting-list indexes with compiled per-attribute filter intervals,
//     incremental projection unions, and attribute-level candidate pruning
//     via stabbing trees over the most selective constrained attribute.
//     From match to project to forward the only map is the tuple's payload:
//     projection lists and unions are sorted slices (replaced, never
//     written, once an epoch can see them), and a record keeps no
//     per-attribute table. The control path reads the same compiled
//     records: a cover decision folds the new subscription's filters into
//     a broker-owned slice (foldSelections, what
//     query.SelectionIntervalsByAttr computes, without the map), and an
//     index insert appends to a shared tail instead of re-sorting runs.
//     There is one routing path. Its reference lives
//     in the package's tests (reference_test.go): a broker over plain
//     record slices that matches with Subscription.Matches and recomputes
//     covering from scratch, which randomized equivalence suites hold the
//     production broker bit-identical to.
//
//   - The concurrency layer (snapshot.go): churn operations mutate the
//     index under Broker.mu and publish an immutable matchSnapshot epoch,
//     a table sorted by stream, behind one atomic pointer; Broker.route
//     matches lock-free against the loaded epoch, so concurrent publishes
//     never block on churn. The memory model — the sharing discipline, the
//     write-once contract and its static enforcement — is specified in
//     CONCURRENCY.md at the repo root.
//
//   - The overlay (network.go): Network wires Brokers over an in-process
//     Fabric (or, via PeerWrapper, a fault-injecting or TCP one), owns
//     membership (AddBroker, RemoveBroker, FailLink and the deterministic
//     re-attach repair), and aggregates traffic into TrafficReports.
//
// Delivered tuples are read-only by contract: a Handler must not mutate
// the tuple it receives (full-tuple deliveries share one attribute map: the
// tuple's own when it is Owned, else one copy per routed tuple). Handlers may
// freely call back into the broker — every callback and peer send happens
// outside Broker.mu, a discipline enforced statically by cosmoslint's
// lockdiscipline analyzer (LINT.md).
package pubsub

// Package analysis is the core of cosmoslint, the repo's custom static
// analysis suite. It mirrors the shape of golang.org/x/tools/go/analysis —
// an Analyzer owns a Run function that inspects one type-checked package
// through a Pass and reports Diagnostics — but is built entirely on the
// standard library so the suite works in hermetic build environments
// (no module downloads: packages are loaded from source plus the gc
// export data the `go list -export` build produces; see the load package).
//
// The analyzers live one package each under this directory (maporder,
// lockdiscipline, poolescape, errdrop, nondeterminism, deadcode); the
// checker package registers and runs them, load type-checks the module,
// and analyzertest is the golden-fixture harness. deadcode is
// module-wide: it sets Analyzer.RunAll and reads the whole module's
// reference set (loaded by the checker) instead of one package at a time. LINT.md at the repo root
// documents each analyzer's invariant and escape hatch; CONCURRENCY.md
// documents the memory-model contracts the lockdiscipline and
// nondeterminism rules enforce.
//
// Invariant escape hatches: a finding can be suppressed with an
// annotation comment naming the analyzer,
//
//	//lint:maporder stats line, order-insensitive summation
//	//lint:errdrop,nondeterminism <reason>
//	//cosmoslint:ignore poolescape <reason>
//
// either trailing on the flagged line or alone on the line above it. The
// reason is not parsed but is required by convention: annotations are the
// greppable record of every intentional invariant exception. Suppression
// is applied uniformly by the checker, not per analyzer.
package analysis

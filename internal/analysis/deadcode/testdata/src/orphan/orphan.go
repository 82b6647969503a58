// Package orphan is imported by nothing, so it is one finding: its members
// are dead with it.
package orphan // want `package orphan has no non-test importer`

func Exported() {}

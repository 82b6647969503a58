//go:build !race

package cosmos

const raceEnabled = false

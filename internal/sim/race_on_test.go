//go:build race

package sim

// raceEnabled: the race detector's sync.Pool drops a random share of Puts,
// so allocation counts do not repeat under it.
const raceEnabled = true

//go:build race

package wire

// raceEnabled reports whether this binary was built with -race, under
// which sync.Pool drops a random share of Puts and allocation counts
// stop meaning anything.
const raceEnabled = true

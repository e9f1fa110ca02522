//go:build race

package core

// raceEnabled reports whether this binary was built with -race, under
// which wall-clock bounds stop meaning anything.
const raceEnabled = true

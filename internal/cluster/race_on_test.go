//go:build race

package cluster

// raceEnabled reports whether the race detector is compiled in, whose
// sync.Pool drops items at random and so skews allocation counts.
const raceEnabled = true

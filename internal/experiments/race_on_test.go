//go:build race

package experiments

// raceEnabled reports whether the race detector is on: it slows every
// simulation severalfold, so the full-size artifact pin runs without it.
const raceEnabled = true

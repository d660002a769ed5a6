//go:build !race

package telemetry

// raceEnabled reports whether the race detector is on: it instruments
// allocations, so allocation budgets only hold without it.
const raceEnabled = false

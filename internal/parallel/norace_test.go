//go:build !race

package parallel

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false

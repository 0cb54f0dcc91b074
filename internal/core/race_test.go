//go:build race

package core

// raceEnabled reports whether the race detector is compiled in. Under it,
// sync.Pool.Put drops a random share of the items it is given, so a warm
// arena can still miss and allocate.
const raceEnabled = true

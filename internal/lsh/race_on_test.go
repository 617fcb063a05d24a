//go:build race

package lsh

// raceEnabled reports that the race detector is on: sync.Pool then
// drops a quarter of what is Put into it on purpose, so a pool-backed
// path cannot be held to zero allocations.
const raceEnabled = true

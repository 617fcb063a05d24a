//go:build race

package core

// raceEnabled reports that the race detector is on: sync.Pool then
// drops a quarter of what is Put into it on purpose, so a pool-backed
// path regrows its arenas at random and cannot be held to a tight
// allocation budget.
const raceEnabled = true

package core

import "hash/fnv"

// This file implements the engine fingerprint: a cheap 64-bit value
// that identifies the state of one engine instance. Serving layers
// key result caches by it: within a single engine's lifetime, every
// mutation (Add, Update, Remove, Compact) moves the fingerprint, so a cache
// keyed this way can never replay a pre-mutation answer as a
// post-mutation one. The base hashes identity, not cell contents —
// distinct engines built from different data can collide — so caches
// spanning engine instances must compose the fingerprint with an
// instance discriminator (the HTTP server's swap generation).
//
// The fingerprint has two halves. The base is hashed once, at build or
// snapshot-load time, over everything that shapes rankings: the
// configured seed, the indexed attribute count and
// the per-table (name, liveness) pairs. The version is a counter
// bumped under the write lock by every successful mutation. Fingerprint
// mixes the two through a splitmix64 finaliser so that consecutive
// versions land far apart in key space.

// fingerprintBase hashes the build-time identity of the engine. Called
// once at the end of BuildEngine and DecodeEngine; callers own the
// engine exclusively at that point, so no lock is needed.
func (e *Engine) fingerprintBase() uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	put(e.opts.Seed)
	put(uint64(len(e.attrs)))
	put(uint64(len(e.byTable)))
	for tid := range e.byTable {
		h.Write([]byte(e.lake.Table(tid).Name))
		alive := uint64(0)
		if e.alive[tid] {
			alive = 1
		}
		put(alive)
	}
	return h.Sum64()
}

// splitmix64 is the SplitMix64 finaliser — a cheap bijective mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Fingerprint returns the engine's current state fingerprint. It is
// stable across calls while no mutation lands and changes after every
// Add, Update, Remove or Compact, which makes it a correct cache version: any
// result computed at fingerprint F may be replayed for an identical
// query observed at the same F.
//
// Fingerprint is deliberately lock-free (fpBase is immutable after
// build, version is atomic): liveness probes and cache-key
// computations must not queue behind a write-lock holder splicing a
// large table into the forests.
func (e *Engine) Fingerprint() uint64 {
	return splitmix64(e.fpBase ^ (e.version.Load() * 0x9e3779b97f4a7c15))
}

// bumpVersion advances the mutation counter. Called by mutations while
// they hold e.mu in write mode (the atomic only serves lock-free
// readers).
func (e *Engine) bumpVersion() { e.version.Add(1) }

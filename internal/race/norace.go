//go:build !race

// Package race tells tests whether the race detector is on: it
// instruments allocations and makes sync.Pool drop items at random, so
// exact allocation gates skip themselves under it (`make allocs` runs
// them without it).
package race

// Enabled reports whether the binary was built with -race.
const Enabled = false

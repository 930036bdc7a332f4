//go:build race

package sqldb

// Under the race detector sync.Pool drops what it is handed at random, so
// a count of allocations on a pooled path says nothing.
func init() { raceDetector = true }

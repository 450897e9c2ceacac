//go:build race

package obs

// raceEnabled reports a -race build. Its instrumentation moves the
// buffer NewID hands to crypto/rand onto the heap.
const raceEnabled = true

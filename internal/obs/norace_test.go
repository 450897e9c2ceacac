//go:build !race

package obs

// raceEnabled reports a -race build.
const raceEnabled = false

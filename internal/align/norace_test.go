//go:build !race

package align

// raceEnabled reports whether the test binary runs under the race
// detector.
const raceEnabled = false

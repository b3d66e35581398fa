//go:build race

package certainty

// raceEnabled reports whether the test binary runs under the race detector.
// Allocation pins skip there: the detector's instrumentation allocates, and
// sync.Pool drops items at random under it.
const raceEnabled = true

//go:build race

package serve

// raceDetector reports whether the test binary was built with -race.
// The detector's instrumentation allocates on its own, so per-request
// allocation ceilings are only meaningful without it.
const raceDetector = true

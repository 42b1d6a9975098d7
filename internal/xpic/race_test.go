//go:build race

package xpic

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = true

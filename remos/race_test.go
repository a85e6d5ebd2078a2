//go:build race

package remos_test

// raceEnabled reports a -race build, whose instrumentation slows every
// call several-fold, so wall-clock latency bounds do not apply.
const raceEnabled = true

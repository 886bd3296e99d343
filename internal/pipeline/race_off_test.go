//go:build !race

package pipeline

// raceEnabled reports whether the race detector instruments this test
// binary; allocation-count tests skip under it (race-mode sync.Pool
// deliberately drops pooled items).
const raceEnabled = false

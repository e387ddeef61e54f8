//go:build race

package rounds_test

// See race_off_test.go.
const raceEnabled = true

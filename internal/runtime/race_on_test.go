//go:build race

package runtime

// See race_off_test.go.
const raceEnabled = true

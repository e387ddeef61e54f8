//go:build !race

package runtime

// raceEnabled trims the block-stepping differential under the race
// detector.
const raceEnabled = false

//go:build !race

package runtime

// raceEnabled trims the block-stepping differential under the race
// detector and skips the alloc pin (sync.Pool drops items at random
// there; see internal/transport/race_off_test.go).
const raceEnabled = false

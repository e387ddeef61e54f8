//go:build !race

package rounds_test

// raceEnabled trims the differential battery under the race detector,
// where a run to decision at n = 257 costs minutes.
const raceEnabled = false

// Package roundstest holds what the tests of both executors share.
package roundstest

import (
	"bytes"
	"runtime"
)

// PoolWorkers returns how many goroutines a rounds.Shards pool started
// are alive — not, as runtime.NumGoroutine, earlier tests' exiting ones.
func PoolWorkers() int {
	buf := make([]byte, 1<<16)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			return bytes.Count(buf[:n], []byte("rounds.(*Shards).work("))
		}
		buf = make([]byte, 2*len(buf))
	}
}

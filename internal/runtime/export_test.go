package runtime

import (
	"kset/internal/rounds"
	"kset/internal/transport"
)

// InlineBelowN exposes the inline crossover to the tests.
const InlineBelowN = inlineBelowN

// RunWorkers is Run at an explicit worker count: the exported functions
// only compute that count.
func RunWorkers(cfg rounds.Config, tr transport.Transport, codec Codec, workers int) (*rounds.Result, error) {
	defer tr.Close()
	n, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	return runLive(cfg, n, workers, tr, codec, nil, nil)
}

package runtime

import (
	"kset/internal/algo"
	"kset/internal/rounds"
	"kset/internal/transport"
)

// InlineBelowN exposes the inline crossover to the tests.
const InlineBelowN = inlineBelowN

// RunWorkers is Run at an explicit worker count: the exported functions
// only compute that count and ask the transport for its node partition.
func RunWorkers(cfg rounds.Config, tr transport.Transport, codec algo.Codec, workers int) (*rounds.Result, error) {
	node, _ := transport.Partition(tr)
	return runWith(cfg, tr, codec, workers, node)
}

// RunWorkersByBytes is RunWorkers with the node partition withheld, as
// from a transport that is not a mesh: every link, co-located or not,
// carries encoded bytes — the reference the by-value path is held to.
func RunWorkersByBytes(cfg rounds.Config, tr transport.Transport, codec algo.Codec, workers int) (*rounds.Result, error) {
	return runWith(cfg, tr, codec, workers, nil)
}

func runWith(cfg rounds.Config, tr transport.Transport, codec algo.Codec, workers int, node []int) (*rounds.Result, error) {
	defer tr.Close()
	n, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	return runLive(cfg, n, workers, node, tr, codec, nil, nil)
}

package rounds

// ShardMinN exposes the sharding crossover to the external tests.
const ShardMinN = shardMinN

// RunLockstep is RunSequential at an explicit worker count: the exported
// function only computes that count.
func RunLockstep(cfg Config, workers int) (*Result, error) {
	n, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	return runLockstep(cfg, n, workers)
}

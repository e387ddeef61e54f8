package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"kset/internal/adversary"
)

// This file is the property battery for StreamSweep's ordering and
// error-path determinism: for EVERY worker count, outcomes arrive in
// strictly ascending cell order, and on failure the caller sees exactly
// the outcomes below the lowest failing cell followed by that cell's
// error — regardless of how worker scheduling interleaves shard
// completion. The jittered Spec below makes high shards finish first,
// which is exactly the schedule that broke the previous collector (it
// stopped delivering the moment any error arrived, so the delivered
// prefix depended on scheduling, and a high cell's error could shadow a
// low cell's).

// jitterSpec builds a valid tiny spec after a scheduling-dependent
// sleep: later cells sleep less, so with many workers high shards land
// in the reorder buffer before low ones.
func jitterSpec(cells int, rng *rand.Rand) func(cell int) (Spec, error) {
	jitter := make([]time.Duration, cells)
	for i := range jitter {
		jitter[i] = time.Duration(rng.Intn(300)) * time.Microsecond
		if i < cells/4 {
			jitter[i] += time.Millisecond
		}
	}
	return func(cell int) (Spec, error) {
		time.Sleep(jitter[cell])
		return Spec{
			Adversary: adversary.Complete(3),
			Proposals: SeqProposals(3),
		}, nil
	}
}

func TestStreamSweepStrictOrderUnderJitter(t *testing.T) {
	const cells = 120
	for _, workers := range []int{1, 2, 3, 8, 16} {
		rng := rand.New(rand.NewSource(int64(workers)))
		var delivered []int
		err := StreamSweep(StreamConfig{
			Cells:     cells,
			Workers:   workers,
			shardSize: 4,
			Spec:      jitterSpec(cells, rng),
			OnOutcome: func(cell int, out *Outcome) error {
				delivered = append(delivered, cell)
				return nil
			},
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(delivered) != cells {
			t.Fatalf("workers=%d: delivered %d of %d", workers, len(delivered), cells)
		}
		for i, c := range delivered {
			if c != i {
				t.Fatalf("workers=%d: cell %d delivered at position %d", workers, c, i)
			}
		}
	}
}

// TestStreamSweepErrorPathDeterministic pins the repaired contract: a
// failing Spec at a fixed cell yields, for every worker count, exactly
// the outcomes 0..failCell-1 in order and an error naming that cell —
// even though higher shards (dispatched concurrently) already finished.
func TestStreamSweepErrorPathDeterministic(t *testing.T) {
	const cells, failCell = 96, 37
	for _, workers := range []int{1, 2, 4, 8} {
		rng := rand.New(rand.NewSource(7))
		base := jitterSpec(cells, rng)
		var delivered []int
		var executedHigh atomic.Bool
		err := StreamSweep(StreamConfig{
			Cells:     cells,
			Workers:   workers,
			shardSize: 4,
			Spec: func(cell int) (Spec, error) {
				if cell == failCell {
					return Spec{}, errors.New("planted failure")
				}
				if cell > failCell+8 {
					executedHigh.Store(true)
				}
				return base(cell)
			},
			OnOutcome: func(cell int, out *Outcome) error {
				delivered = append(delivered, cell)
				return nil
			},
		})
		if err == nil {
			t.Fatalf("workers=%d: sweep did not fail", workers)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("cell %d", failCell)) {
			t.Fatalf("workers=%d: error %q does not name cell %d", workers, err, failCell)
		}
		if len(delivered) != failCell {
			t.Fatalf("workers=%d: delivered %d outcomes before the failure, want exactly %d",
				workers, len(delivered), failCell)
		}
		for i, c := range delivered {
			if c != i {
				t.Fatalf("workers=%d: cell %d delivered at position %d", workers, c, i)
			}
		}
		if workers > 2 && !executedHigh.Load() {
			t.Logf("workers=%d: note: no shard beyond the failing one executed (jitter too tame to stress reordering)", workers)
		}
	}
}

// TestStreamSweepOnOutcomeErrorDeterministic does the same for a
// consumer-side failure: OnOutcome runs on the collector in cell order,
// so its first error is always at the same cell.
func TestStreamSweepOnOutcomeErrorDeterministic(t *testing.T) {
	const cells, failCell = 64, 29
	for _, workers := range []int{1, 3, 8} {
		rng := rand.New(rand.NewSource(11))
		var delivered []int
		err := StreamSweep(StreamConfig{
			Cells:     cells,
			Workers:   workers,
			shardSize: 5,
			Spec:      jitterSpec(cells, rng),
			OnOutcome: func(cell int, out *Outcome) error {
				if cell == failCell {
					return errors.New("consumer rejects")
				}
				delivered = append(delivered, cell)
				return nil
			},
		})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("cell %d", failCell)) {
			t.Fatalf("workers=%d: err = %v, want a cell-%d error", workers, err, failCell)
		}
		if len(delivered) != failCell {
			t.Fatalf("workers=%d: delivered %d, want %d", workers, len(delivered), failCell)
		}
	}
}

// TestStreamSweepLowestErrorWins plants TWO failing cells; the returned
// error must always be the lower one's, for every worker count (the
// previous collector returned whichever arrived first).
func TestStreamSweepLowestErrorWins(t *testing.T) {
	const cells, lowFail, highFail = 80, 21, 22
	for _, workers := range []int{1, 2, 8} {
		rng := rand.New(rand.NewSource(13))
		base := jitterSpec(cells, rng)
		err := StreamSweep(StreamConfig{
			Cells:     cells,
			Workers:   workers,
			shardSize: 1, // every cell its own shard: maximal reordering freedom
			Spec: func(cell int) (Spec, error) {
				switch cell {
				case lowFail:
					time.Sleep(2 * time.Millisecond) // make the low failure finish LAST
					return Spec{}, errors.New("low failure")
				case highFail:
					return Spec{}, errors.New("high failure")
				}
				return base(cell)
			},
			OnOutcome: func(cell int, out *Outcome) error { return nil },
		})
		if err == nil || !strings.Contains(err.Error(), "low failure") {
			t.Fatalf("workers=%d: err = %v, want the low-cell failure", workers, err)
		}
	}
}

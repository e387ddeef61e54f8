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

// This file is the property battery for Sweep's ordering and
// error-path determinism: for EVERY worker count, outcomes arrive in
// strictly ascending cell order, and on failure the caller sees exactly
// the outcomes below the lowest failing cell followed by that cell's
// error — regardless of how worker scheduling interleaves shard
// completion. The jittered Spec below makes high shards finish first,
// which is exactly the schedule that breaks an engine that stops
// delivering the moment any error arrives (the first one did: the
// delivered prefix depended on scheduling, and a high cell's error could
// shadow a low cell's).

// jitterSpec builds a valid tiny spec after a scheduling-dependent
// sleep: later cells sleep less, so with many workers high shards are
// done before low ones.
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

func TestSweepStrictOrderUnderJitter(t *testing.T) {
	const cells = 120
	for _, workers := range []int{1, 2, 3, 8, 16} {
		rng := rand.New(rand.NewSource(int64(workers)))
		var delivered []int
		err := sweep(cells, workers, 4,
			executing(jitterSpec(cells, rng)),
			func(cell int, out *Outcome) error {
				delivered = append(delivered, cell)
				return nil
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

// TestSweepErrorPathDeterministic pins the repaired contract: a
// failing Spec at a fixed cell yields, for every worker count, exactly
// the outcomes 0..failCell-1 in order and an error naming that cell —
// even though higher shards (dispatched concurrently) already finished.
func TestSweepErrorPathDeterministic(t *testing.T) {
	const cells, failCell = 96, 37
	for _, workers := range []int{1, 2, 4, 8} {
		rng := rand.New(rand.NewSource(7))
		base := jitterSpec(cells, rng)
		var delivered []int
		var executedHigh atomic.Bool
		err := sweep(cells, workers, 4,
			executing(func(cell int) (Spec, error) {
				if cell == failCell {
					return Spec{}, errors.New("planted failure")
				}
				if cell > failCell+8 {
					executedHigh.Store(true)
				}
				return base(cell)
			}),
			func(cell int, out *Outcome) error {
				delivered = append(delivered, cell)
				return nil
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

// TestSweepDeliverErrorDeterministic does the same for a
// consumer-side failure: deliver runs on the caller in cell order,
// so its first error is always at the same cell.
func TestSweepDeliverErrorDeterministic(t *testing.T) {
	const cells, failCell = 64, 29
	for _, workers := range []int{1, 3, 8} {
		rng := rand.New(rand.NewSource(11))
		var delivered []int
		err := sweep(cells, workers, 5,
			executing(jitterSpec(cells, rng)),
			func(cell int, out *Outcome) error {
				if cell == failCell {
					return errors.New("consumer rejects")
				}
				delivered = append(delivered, cell)
				return nil
			})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("cell %d", failCell)) {
			t.Fatalf("workers=%d: err = %v, want a cell-%d error", workers, err, failCell)
		}
		if len(delivered) != failCell {
			t.Fatalf("workers=%d: delivered %d, want %d", workers, len(delivered), failCell)
		}
	}
}

// TestSweepLowestErrorWins plants TWO failing cells; the returned
// error must always be the lower one's, for every worker count (not
// whichever arrives first).
func TestSweepLowestErrorWins(t *testing.T) {
	const cells, lowFail, highFail = 80, 21, 22
	for _, workers := range []int{1, 2, 8} {
		rng := rand.New(rand.NewSource(13))
		base := jitterSpec(cells, rng)
		err := sweep(cells, workers, 1, // every cell its own shard: maximal reordering freedom
			executing(func(cell int) (Spec, error) {
				switch cell {
				case lowFail:
					time.Sleep(2 * time.Millisecond) // make the low failure finish LAST
					return Spec{}, errors.New("low failure")
				case highFail:
					return Spec{}, errors.New("high failure")
				}
				return base(cell)
			}),
			func(cell int, out *Outcome) error { return nil })
		if err == nil || !strings.Contains(err.Error(), "low failure") {
			t.Fatalf("workers=%d: err = %v, want the low-cell failure", workers, err)
		}
	}
}

// TestSweepInFlightBound pins the memory contract (DESIGN.md §5): with
// the consumer stuck on cell 0, no more than workers+1 shards ever run —
// the queue of futures and the one the caller holds — so retained values
// are O(workers · shard) whatever the cell count.
func TestSweepInFlightBound(t *testing.T) {
	const cells, workers, shard = 400, 3, 4
	const bound = (workers + 1) * shard
	var ran atomic.Int32
	full := make(chan struct{})
	err := sweep(cells, workers, shard,
		func(cell int) (int, error) {
			if ran.Add(1) == bound {
				close(full)
			}
			return cell, nil
		},
		func(cell, v int) error {
			if cell == 0 {
				<-full // every shard the bound admits has started its last cell
				time.Sleep(20 * time.Millisecond)
				if got := ran.Load(); got != bound {
					t.Errorf("%d cells ran while deliver(0) blocked, want exactly (workers+1)·shard = %d", got, bound)
				}
			}
			if v != cell {
				t.Errorf("cell %d delivered value %d", cell, v)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if got := ran.Load(); got != cells {
		t.Fatalf("%d cells ran, want %d", got, cells)
	}
}

package transport

import "testing"

// TestGilbertElliottValidation pins the parameter contract: mean burst
// and gap lengths below one round are rejected, on the chain and on
// the frame-loss hook alike.
func TestGilbertElliottValidation(t *testing.T) {
	if _, err := newGilbertElliott(0.5, 36, 1); err == nil {
		t.Error("burst < 1 accepted")
	}
	if _, err := newGilbertElliott(4, 0.5, 1); err == nil {
		t.Error("gap < 1 accepted")
	}
	if _, err := GEFrameLoss(0, 36, 1); err == nil {
		t.Error("GEFrameLoss accepted burst < 1")
	}
}

// TestGilbertElliottStationaryLossRate checks the long-run loss rate
// against the chain's stationary distribution Burst/(Burst+Gap): 30
// directed links over 2000 rounds each, with a ±30% tolerance that
// absorbs the burst correlation's variance inflation.
func TestGilbertElliottStationaryLossRate(t *testing.T) {
	const burst, gap = 4.0, 36.0
	g, err := newGilbertElliott(burst, gap, 7)
	if err != nil {
		t.Fatal(err)
	}
	lost, total := 0, 0
	for from := 0; from < 6; from++ {
		for to := 0; to < 6; to++ {
			if to == from {
				continue
			}
			for r := 1; r <= 2000; r++ {
				total++
				if g.bad(r, from, to) {
					lost++
				}
			}
		}
	}
	want := burst / (burst + gap)
	got := float64(lost) / float64(total)
	if got < 0.7*want || got > 1.3*want {
		t.Errorf("loss rate %.4f, want %.4f ± 30%%", got, want)
	}
}

// TestGilbertElliottBurstiness distinguishes the chain from i.i.d. loss
// at the same rate: the mean length of a completed loss run must track
// the configured Burst, far above the ~1.1-round runs an i.i.d. 10%%
// coin produces.
func TestGilbertElliottBurstiness(t *testing.T) {
	const burst, gap = 4.0, 36.0
	g, err := newGilbertElliott(burst, gap, 11)
	if err != nil {
		t.Fatal(err)
	}
	runs, runLen := 0, 0
	for from := 0; from < 8; from++ {
		for to := 0; to < 8; to++ {
			if to == from {
				continue
			}
			cur := 0
			for r := 1; r <= 4000; r++ {
				if g.bad(r, from, to) {
					cur++
				} else if cur > 0 {
					runs++
					runLen += cur
					cur = 0
				}
			}
		}
	}
	if runs == 0 {
		t.Fatal("no loss runs observed")
	}
	mean := float64(runLen) / float64(runs)
	if mean < 0.6*burst || mean > 1.4*burst {
		t.Errorf("mean loss-run length %.2f rounds, want %.1f ± 40%%", mean, burst)
	}
	if mean < 2 {
		t.Errorf("mean run %.2f indistinguishable from i.i.d. loss", mean)
	}
}

// TestGilbertElliottDeterminism pins replayability: the walk is a pure
// function of (seed, link, round) — equal seeds agree verdict-for-
// verdict, a different seed diverges somewhere, and a backwards query
// (which recomputes the memoized walk from round 1) reproduces the
// forward pass exactly.
func TestGilbertElliottDeterminism(t *testing.T) {
	g1, _ := newGilbertElliott(4, 36, 42)
	g2, _ := newGilbertElliott(4, 36, 42)
	g3, _ := newGilbertElliott(4, 36, 43)
	const rounds = 500
	forward := make([]bool, rounds+1)
	diverged := false
	for r := 1; r <= rounds; r++ {
		for from := 0; from < 4; from++ {
			for to := 0; to < 4; to++ {
				if to == from {
					continue
				}
				a := g1.bad(r, from, to)
				if a != g2.bad(r, from, to) {
					t.Fatalf("equal seeds diverge at round %d link %d->%d", r, from, to)
				}
				if a != g3.bad(r, from, to) {
					diverged = true
				}
				if from == 0 && to == 1 {
					forward[r] = a
				}
			}
		}
	}
	if !diverged {
		t.Error("seeds 42 and 43 produced identical loss patterns")
	}
	for _, r := range []int{1, 117, 499} {
		if g1.bad(r, 0, 1) != forward[r] {
			t.Errorf("backwards query at round %d diverges from the forward pass", r)
		}
	}
}

// TestGEFrameLossSharesVerdictAcrossFragments pins the hook contract:
// all fragments of one frame share the link's round verdict (so heard-
// sets stay a pure function of seed, round, link), and the hook agrees
// with the chain it is built on.
func TestGEFrameLossSharesVerdictAcrossFragments(t *testing.T) {
	drop, err := GEFrameLoss(4, 36, 9)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := newGilbertElliott(4, 36, 9)
	for r := 1; r <= 300; r++ {
		want := g.bad(r, 1, 2)
		for frag := 0; frag < 3; frag++ {
			if drop(r, 1, 2, frag) != want {
				t.Fatalf("round %d frag %d: verdict differs from the link's chain state", r, frag)
			}
		}
	}
}

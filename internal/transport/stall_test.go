package transport

import (
	"testing"
	"time"
)

// TestStallDetectorStreakRule feeds one node's stall detector sealed
// rounds directly. Node 0 hosts p1 and p2, node 1 hosts p3 and p4; in
// every fed round both of node 1's senders and node 0's own p1 were
// given up on. Only DeadAfter consecutive rounds forget the peer — once,
// however many of its senders a round missed — and node 0 never rules
// on its own processes.
func TestStallDetectorStreakRule(t *testing.T) {
	const deadAfter = 3
	for _, tc := range []struct {
		name      string
		misses    []int
		verdictAt int // 0 = never
	}{
		{"broken streak", []int{2, 3, 5, 6}, 0},
		{"streak", []int{2, 3, 4}, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var c StallCounters
			m, nd := detectorNode(t, deadAfter, &c)
			for _, r := range tc.misses {
				sealRound(nd, r)
				if got, want := nd.peers[1].forgotten, tc.verdictAt != 0 && r >= tc.verdictAt; got != want {
					t.Fatalf("after round %d: peer forgotten = %v, want %v", r, got, want)
				}
			}
			want := int64(0)
			if tc.verdictAt != 0 {
				want = 2
			}
			if got := c.Dead.Load(); got != want {
				t.Errorf("Dead = %d, want %d", got, want)
			}
			if nd.peers[0].forgotten || nd.box.deadAt(0, 1) {
				t.Error("node 0 ruled on its own process")
			}
			if m.nodes[1].box.dead != nil {
				t.Error("node 0's verdict reached node 1's mailbox")
			}
		})
	}

	t.Run("forgotten once", func(t *testing.T) {
		var c StallCounters
		_, nd := detectorNode(t, deadAfter, &c)
		for r := 2; r <= 8; r++ {
			sealRound(nd, r)
		}
		nd.forget(1) // a lost stream to the same peer
		if !nd.box.deadAt(2, 1) || !nd.box.deadAt(3, 1) {
			t.Error("the forgotten peer's processes are not dead in node 0's mailbox")
		}
		if got := c.Dead.Load(); got != 2 {
			t.Errorf("Dead = %d, want 2: a peer is forgotten once", got)
		}
	})
}

// detectorNode builds a two-node mesh of four processes with a stall
// detector and returns it with node 0.
func detectorNode(t *testing.T, deadAfter int, c *StallCounters) (*mesh, *meshNode) {
	t.Helper()
	m, err := newMesh(4, 2, nil, meshOpts{deadline: time.Hour, grace: time.Hour, deadAfter: deadAfter, counters: c})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m, m.nodes[0]
}

// sealRound feeds nd's detector round r sealed without p1, p3 and p4.
func sealRound(nd *meshNode, r int) {
	state := []uint8{slotLost, slotArrived, slotLost, slotLost}
	nd.box.mu.Lock()
	nd.sealedLocked(r, state)
	nd.box.mu.Unlock()
}

package transport

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"time"
)

// chanLink is a link over channels, with no socket: send copies a frame
// body onto its destination node's channel, and one goroutine per node
// hands what arrives to the node's deliver, as a reader loop would. When
// hold is non-nil, every send from node 0 blocks until hold is closed.
type chanLink struct {
	t      *mesh
	in     []chan chanFrame // per destination node
	hold   chan struct{}
	exited sync.WaitGroup

	mu   sync.Mutex
	sent []int // the rounds node 0 sent, in order
}

type chanFrame struct {
	from, r int
	body    []byte
}

// newChanLink installs a channel link on a multi-node mesh.
func newChanLink(t *mesh) *chanLink {
	l := &chanLink{t: t, in: make([]chan chanFrame, t.m)}
	for to := range l.in {
		l.in[to] = make(chan chanFrame)
		l.exited.Add(1)
		go l.readLoop(to)
	}
	t.link = l
	return l
}

func (l *chanLink) readLoop(to int) {
	defer l.exited.Done()
	nd := l.t.nodes[to]
	for {
		select {
		case f := <-l.in[to]:
			if err := nd.deliver(f.from, f.r, f.body); err != nil {
				nd.failLocal(err)
			}
		case <-l.t.done:
			return
		}
	}
}

func (l *chanLink) send(from, to, r int, body []byte) error {
	if from == 0 {
		if l.hold != nil {
			select {
			case <-l.hold:
			case <-l.t.done:
				return nil
			}
		}
		l.mu.Lock()
		l.sent = append(l.sent, r)
		l.mu.Unlock()
	}
	select {
	case l.in[to] <- chanFrame{from, r, slices.Clone(body)}:
	case <-l.t.done:
	}
	return nil
}

func (l *chanLink) flush(int) error { return nil }

func (l *chanLink) close() { l.exited.Wait() }

// TestStalledLinkHoldsItsNodesRound stalls node 0's link in round 1 — its
// send blocks until the test releases it, 150ms later — on a 2-node
// deadline mesh driven as the runtime drives one: a goroutine per process
// and a barrier between rounds. The Broadcast that completes node 0's
// round is the call that ships it, so the stall holds node 0's round 1,
// and the barrier holds every process with it; once released, every round
// ships, in order, and no node fails. Frames shipped from a goroutine of
// their own would let node 0's processes run on past the stalled round
// until the ring recycled it unshipped.
func TestStalledLinkHoldsItsNodesRound(t *testing.T) {
	const n, rounds = 4, 8
	tr, err := newMesh(n, 2, nil, meshOpts{deadline: 10 * time.Millisecond, grace: 1250 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	l := newChanLink(tr)
	l.hold = make(chan struct{})
	defer tr.Close()
	eps := make([]Endpoint, n)
	for p := range eps {
		if eps[p], err = tr.Endpoint(p); err != nil {
			t.Fatal(err)
		}
	}
	release := time.AfterFunc(150*time.Millisecond, func() { close(l.hold) })
	defer release.Stop()
	for r := 1; r <= rounds; r++ {
		errs := make([]error, n)
		var wg sync.WaitGroup
		for p, ep := range eps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if errs[p] = ep.Broadcast(r, payloadFor(p, r)); errs[p] == nil {
					_, errs[p] = ep.Gather(r, nil)
				}
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if want := []int{1, 2, 3, 4, 5, 6, 7, 8}; !slices.Equal(l.sent, want) {
		t.Errorf("node 0 sent rounds %v, want %v", l.sent, want)
	}
}

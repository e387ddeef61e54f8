// Package runfile serializes eventually-constant runs (an adversary's
// prefix graphs plus its stable graph) to a compact binary format, so
// that interesting runs — counterexamples, regression cases, fuzzing
// finds — can be stored, shared, and replayed bit-identically.
//
// Layout (all integers unsigned varints):
//
//	magic   "KSR1" (4 bytes)
//	varint  n      (universe size)
//	varint  p      (number of prefix graphs)
//	graph × (p+1)  (prefix graphs, then the stable graph)
//
// where each graph is
//
//	varint  e      (edge count)
//	edge × e:      varint from, varint to
//
// All graphs must contain every node and every self-loop (the round
// model's requirement), so only edges are stored; nodes are implied.
package runfile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"

	"kset/internal/adversary"
	"kset/internal/graph"
)

var magic = [4]byte{'K', 'S', 'R', '1'}

// errBadMagic reports input that is not a runfile.
var errBadMagic = errors.New("runfile: bad magic")

// Decoding limits. A graph over universe n costs Θ(n²/8) bytes of bitset
// arena, so untrusted headers must not be able to demand huge universes
// or graph counts before any actual edge data has been seen (found by
// FuzzDecode: a 10-byte input could previously request a 2^20-node
// universe). maxUniverse is far above any simulated system size;
// maxPrefix matches the longest schedules the adversaries generate.
const (
	// maxUniverse is the largest accepted universe size n.
	maxUniverse = 4096
	// maxPrefix is the largest accepted prefix length.
	maxPrefix = 1 << 20
)

// Encode serializes a run.
func Encode(run *adversary.Run) []byte {
	n := run.N()
	buf := append([]byte(nil), magic[:]...)
	buf = binary.AppendUvarint(buf, uint64(n))
	p := run.PrefixLen()
	buf = binary.AppendUvarint(buf, uint64(p))
	for r := 1; r <= p; r++ {
		buf = appendGraph(buf, run.Graph(r))
	}
	return appendGraph(buf, run.Base())
}

func appendGraph(buf []byte, g *graph.Digraph) []byte {
	edges := g.Edges()
	// Self-loops are implied; store only the rest.
	count := 0
	for _, e := range edges {
		if e.From != e.To {
			count++
		}
	}
	buf = binary.AppendUvarint(buf, uint64(count))
	for _, e := range edges {
		if e.From == e.To {
			continue
		}
		buf = binary.AppendUvarint(buf, uint64(e.From))
		buf = binary.AppendUvarint(buf, uint64(e.To))
	}
	return buf
}

// Decode parses a runfile back into a replayable adversary.
func Decode(buf []byte) (*adversary.Run, error) {
	if len(buf) < 4 || buf[0] != magic[0] || buf[1] != magic[1] ||
		buf[2] != magic[2] || buf[3] != magic[3] {
		return nil, errBadMagic
	}
	buf = buf[4:]
	un, k := binary.Uvarint(buf)
	if k <= 0 {
		return nil, errTrunc("universe")
	}
	buf = buf[k:]
	n := int(un)
	if n < 1 || n > maxUniverse {
		return nil, fmt.Errorf("runfile: implausible universe %d", n)
	}
	up, k := binary.Uvarint(buf)
	if k <= 0 {
		return nil, errTrunc("prefix length")
	}
	buf = buf[k:]
	p := int(up)
	if p < 0 || p > maxPrefix {
		return nil, fmt.Errorf("runfile: implausible prefix length %d", p)
	}
	// Every graph costs at least one byte (its edge-count varint), so a
	// header demanding more graphs than there are bytes left is lying;
	// rejecting it here keeps the decode cost proportional to the input.
	if p+1 > len(buf) {
		return nil, fmt.Errorf("runfile: prefix length %d exceeds remaining input %d", p, len(buf))
	}
	graphs := make([]*graph.Digraph, 0, p+1)
	for i := 0; i <= p; i++ {
		g, rest, err := decodeGraph(buf, n)
		if err != nil {
			return nil, fmt.Errorf("runfile: graph %d: %w", i, err)
		}
		graphs = append(graphs, g)
		buf = rest
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("runfile: %d trailing bytes", len(buf))
	}
	return adversary.NewRun(graphs[:p], graphs[p]), nil
}

// WriteFile encodes run into the named file — the counterexample-export
// entry point of the falsification engine (internal/check).
func WriteFile(path string, run *adversary.Run) error {
	return os.WriteFile(path, Encode(run), 0o644)
}

// ReadFile decodes the named file back into a replayable adversary.
func ReadFile(path string) (*adversary.Run, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(buf)
}

func decodeGraph(buf []byte, n int) (*graph.Digraph, []byte, error) {
	g := graph.NewFullDigraph(n)
	g.AddSelfLoops()
	ue, k := binary.Uvarint(buf)
	if k <= 0 {
		return nil, nil, errTrunc("edge count")
	}
	buf = buf[k:]
	// Each stored edge is at least two varint bytes; a count beyond that
	// is a lying header, not a long file.
	if ue > uint64(len(buf))/2 {
		return nil, nil, fmt.Errorf("edge count %d exceeds remaining input %d", ue, len(buf))
	}
	for i := uint64(0); i < ue; i++ {
		uf, k := binary.Uvarint(buf)
		if k <= 0 {
			return nil, nil, errTrunc("edge from")
		}
		buf = buf[k:]
		ut, k := binary.Uvarint(buf)
		if k <= 0 {
			return nil, nil, errTrunc("edge to")
		}
		buf = buf[k:]
		// Compare in uint64 space: a >= 2^63 varint would overflow int
		// to a negative value and sail past an int comparison (found by
		// FuzzDecode: panic in AddEdge instead of a decode error).
		if uf >= uint64(n) || ut >= uint64(n) {
			return nil, nil, fmt.Errorf("edge p%d->p%d out of universe %d", uf+1, ut+1, n)
		}
		if uf == ut {
			return nil, nil, fmt.Errorf("explicit self-loop p%d (implied, must not be stored)", uf+1)
		}
		g.AddEdge(int(uf), int(ut))
	}
	return g, buf, nil
}

func errTrunc(what string) error { return fmt.Errorf("runfile: truncated at %s", what) }

// Package wire provides a compact binary encoding of Algorithm 1's
// messages (tag, xp, Gp). The paper's Section V claims the algorithm's
// worst-case message bit complexity is polynomial in n; this codec is
// what the experiment harness measures to reproduce that claim (E5).
//
// Layout (all multi-byte integers are unsigned varints unless noted):
//
//	byte   0      kind (0 = prop, 1 = decide)
//	varint        zig-zag encoded x
//	varint        n (universe size)
//	ceil(n/8)     node-presence bitmap
//	varint        edge count
//	per edge:     varint from, varint to, varint label
//
// Edges are emitted in deterministic (from, to) order, so encoding is
// canonical: Encode(m1) == Encode(m2) iff the messages are semantically
// equal.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"kset/internal/core"
	"kset/internal/graph"
)

var (
	// ErrTruncated reports an input shorter than its own header claims.
	ErrTruncated = errors.New("wire: truncated message")
	// ErrBadKind reports an unknown message tag.
	ErrBadKind = errors.New("wire: unknown message kind")
)

// MaxUniverse is the largest universe size Decode accepts. A labeled
// graph costs Θ(n²) ints, so untrusted headers must not be able to
// demand huge universes from a few input bytes (found by FuzzDecode: a
// short input could previously request n = 2^20, an 8 TiB matrix).
// Simulated systems are orders of magnitude below this bound.
const MaxUniverse = 4096

// Encode serializes a message into a fresh buffer.
func Encode(m core.Message) []byte {
	return AppendEncode(nil, m)
}

// AppendEncode serializes m, appending to dst (which may be nil) and
// returning the extended buffer; use it to amortize allocations across
// rounds.
func AppendEncode(dst []byte, m core.Message) []byte {
	if m.G == nil {
		panic("wire: message with nil graph")
	}
	dst = append(dst, byte(m.Kind))
	dst = binary.AppendVarint(dst, m.X)
	n := m.G.N()
	dst = binary.AppendUvarint(dst, uint64(n))
	// Reserve the bitmap region inside dst and set bits in place, so
	// steady-state encoding into a reused buffer stays allocation-free.
	pad := (n + 7) / 8
	base := len(dst)
	for i := 0; i < pad; i++ {
		dst = append(dst, 0)
	}
	bitmap := dst[base : base+pad]
	m.G.ForEachNode(func(v int) { bitmap[v/8] |= 1 << (v % 8) })
	dst = binary.AppendUvarint(dst, uint64(m.G.NumEdges()))
	m.G.ForEachEdge(func(u, v, label int) {
		dst = binary.AppendUvarint(dst, uint64(u))
		dst = binary.AppendUvarint(dst, uint64(v))
		dst = binary.AppendUvarint(dst, uint64(label))
	})
	return dst
}

// EncodedSize returns len(Encode(m)) without retaining the buffer.
func EncodedSize(m core.Message) int {
	return len(AppendEncode(nil, m))
}

// Decode parses a message previously produced by Encode.
func Decode(buf []byte) (core.Message, error) {
	var m core.Message
	err := DecodeInto(buf, &m)
	return m, err
}

// DecodeInto parses a message previously produced by Encode, writing it
// into *m. When m.G is non-nil with a universe matching the encoded one,
// its storage is reset and reused instead of allocating a fresh graph —
// the distributed runtime (internal/runtime) decodes n messages per
// process per round into per-sender scratch, and this keeps that path
// free of graph allocations in steady state. On error *m — including a
// reused graph's contents — may be partially overwritten.
func DecodeInto(buf []byte, m *core.Message) error {
	if len(buf) < 1 {
		return ErrTruncated
	}
	kind := core.Kind(buf[0])
	if kind != core.Prop && kind != core.Decide {
		return fmt.Errorf("%w: %d", ErrBadKind, buf[0])
	}
	m.Kind = kind
	buf = buf[1:]

	x, k := binary.Varint(buf)
	if k <= 0 {
		return ErrTruncated
	}
	m.X = x
	buf = buf[k:]

	un, k := binary.Uvarint(buf)
	if k <= 0 {
		return ErrTruncated
	}
	buf = buf[k:]
	n := int(un)
	if n < 0 || n > MaxUniverse {
		return fmt.Errorf("wire: implausible universe size %d", n)
	}
	bmLen := (n + 7) / 8
	if len(buf) < bmLen {
		return ErrTruncated
	}
	g := m.G
	if g != nil && g.N() == n {
		g.Reset()
	} else {
		g = graph.NewLabeled(n)
	}
	for v := 0; v < n; v++ {
		if buf[v/8]&(1<<(v%8)) != 0 {
			g.AddNode(v)
		}
	}
	buf = buf[bmLen:]

	edges, k := binary.Uvarint(buf)
	if k <= 0 {
		return ErrTruncated
	}
	buf = buf[k:]
	// Each stored edge is at least three varint bytes; reject lying
	// headers before looping.
	if edges > uint64(len(buf))/3 {
		return fmt.Errorf("wire: edge count %d exceeds remaining input %d", edges, len(buf))
	}
	for i := uint64(0); i < edges; i++ {
		u, k := binary.Uvarint(buf)
		if k <= 0 {
			return ErrTruncated
		}
		buf = buf[k:]
		v, k := binary.Uvarint(buf)
		if k <= 0 {
			return ErrTruncated
		}
		buf = buf[k:]
		label, k := binary.Uvarint(buf)
		if k <= 0 {
			return ErrTruncated
		}
		buf = buf[k:]
		// Compare in uint64 space: a >= 2^63 varint would overflow int to
		// a negative value and sail past an int comparison (the runfile
		// decoder had exactly this bug, found by FuzzDecode).
		if u >= uint64(n) || v >= uint64(n) {
			return fmt.Errorf("wire: edge endpoint out of universe")
		}
		if label == 0 || label > math.MaxInt32 {
			// The upper bound also keeps int(label) positive on 32-bit
			// platforms, where a larger value would wrap.
			return fmt.Errorf("wire: implausible edge label %d", label)
		}
		g.MergeEdge(int(u), int(v), int(label))
	}
	if len(buf) != 0 {
		return fmt.Errorf("wire: %d trailing bytes", len(buf))
	}
	m.G = g
	return nil
}

// Meter accumulates wire-size statistics over a run; attach its Observe
// method to message traffic (the sim package does this automatically).
type Meter struct {
	Messages   int
	TotalBytes int
	MaxBytes   int
}

// Observe accounts one encoded message size.
func (mt *Meter) Observe(size int) {
	mt.Messages++
	mt.TotalBytes += size
	if size > mt.MaxBytes {
		mt.MaxBytes = size
	}
}

// Avg returns the mean message size in bytes.
func (mt *Meter) Avg() float64 {
	if mt.Messages == 0 {
		return 0
	}
	return float64(mt.TotalBytes) / float64(mt.Messages)
}

package approx

import (
	"encoding/binary"
	"fmt"
)

// Wire format of a Message, mirroring internal/wire's conventions
// (canonical varint encoding, decode hardening against hostile input):
//
//	flag byte     0 running, 1 decided
//	zigzag varint Lo (scaled position, may be negative on cycles)
//	uvarint       Hi - Lo (interval width, never negative)
//
// Encoding is canonical: decode followed by re-encode is byte-identical
// (the fuzz target pins this).

// maxAbs bounds |Lo| and the interval width on the wire. Honest values
// stay within a few cycle lengths of [0, maxVertices·scale); one spare
// factor of 2^4 leaves room without admitting values whose sums could
// overflow int64 in Transition.
const maxAbs = int64(maxVertices) * scale << 4

// AppendEncode appends m's wire form to dst and returns the extended
// slice.
func AppendEncode(dst []byte, m Message) []byte {
	flag := byte(0)
	if m.decided {
		flag = 1
	}
	dst = append(dst, flag)
	dst = binary.AppendVarint(dst, m.lo)
	dst = binary.AppendUvarint(dst, uint64(m.hi-m.lo))
	return dst
}

// DecodeInto parses buf into m. Like wire.DecodeInto it validates in
// integer space wide enough that no hostile input can overflow: the
// position and width are bounded by maxAbs before any arithmetic, and
// trailing bytes are rejected so the encoding stays canonical.
func DecodeInto(buf []byte, m *Message) error {
	if len(buf) == 0 {
		return fmt.Errorf("approx: empty message")
	}
	switch buf[0] {
	case 0:
		m.decided = false
	case 1:
		m.decided = true
	default:
		return fmt.Errorf("approx: unknown flag byte %d", buf[0])
	}
	buf = buf[1:]
	lo, k := binary.Varint(buf)
	if k <= 0 || !minimal(buf, k) {
		return fmt.Errorf("approx: bad lo varint")
	}
	buf = buf[k:]
	width, k := binary.Uvarint(buf)
	if k <= 0 || !minimal(buf, k) {
		return fmt.Errorf("approx: bad width uvarint")
	}
	buf = buf[k:]
	if len(buf) != 0 {
		return fmt.Errorf("approx: %d trailing bytes", len(buf))
	}
	if lo < -maxAbs || lo > maxAbs {
		return fmt.Errorf("approx: position %d out of range", lo)
	}
	if width > uint64(maxAbs) {
		return fmt.Errorf("approx: interval width %d out of range", width)
	}
	m.lo = lo
	m.hi = lo + int64(width)
	return nil
}

// minimal reports whether the k-byte varint just consumed from buf is
// its shortest encoding. binary.Varint accepts zero-extended forms (a
// trailing 0x00 group after a continuation byte); rejecting them keeps
// the wire encoding canonical in both directions, so decode followed by
// re-encode is byte-identical for every accepted payload (FuzzDecode
// pins this).
func minimal(buf []byte, k int) bool { return k == 1 || buf[k-1] != 0 }

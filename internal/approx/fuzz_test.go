package approx

import (
	"bytes"
	"testing"
)

// FuzzDecode hardens the approx wire decoder against hostile input (the
// fuzz target the algo registry declares for this family): DecodeInto
// must never panic, and every accepted payload must re-encode to the
// identical bytes — the canonical-encoding property the registration
// self-test and decode caches rely on.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendEncode(nil, Message{}))
	f.Add(AppendEncode(nil, Message{lo: -3 * scale, hi: 5 * scale, decided: true}))
	f.Add(AppendEncode(nil, Message{lo: maxAbs, hi: maxAbs}))
	f.Add(AppendEncode(nil, Message{lo: -maxAbs, hi: 0}))
	f.Add([]byte{0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Message
		if err := DecodeInto(data, &m); err != nil {
			return
		}
		if m.hi < m.lo {
			t.Fatalf("decoded inverted interval %+v from %x", m, data)
		}
		if re := AppendEncode(nil, m); !bytes.Equal(re, data) {
			t.Fatalf("accepted non-canonical encoding %x of %+v (canonical %x)", data, m, re)
		}
	})
}

package transport

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// udpFuzzSeeds returns representative datagrams for the fuzz corpus:
// single-fragment frames with and without tombstones, a multi-fragment
// header, and a few structurally broken packets.
func udpFuzzSeeds() [][]byte {
	frame := func(snd, rcv int, bits []byte, payloads ...[]byte) []byte {
		body := append([]byte(nil), bits...)
		for _, p := range payloads {
			body = binary.AppendUvarint(body, uint64(len(p)))
			body = append(body, p...)
		}
		return body
	}
	seeds := [][]byte{
		// 1x1 link, delivered payload.
		appendUDPHeader(nil, udpHeader{from: 1, round: 1, fragIdx: 0, fragCount: 1}),
		// 2x2 link, sender 0 delivers to both, sender 1 tombstoned.
		append(appendUDPHeader(nil, udpHeader{from: 0, round: 3, fragIdx: 0, fragCount: 1}),
			frame(2, 2, []byte{0b0011}, []byte("hello"))...),
		// First fragment of a three-fragment frame.
		appendUDPHeader(nil, udpHeader{from: 2, round: 7, fragIdx: 0, fragCount: 3}),
		// Broken: fragIdx beyond fragCount.
		appendUDPHeader(nil, udpHeader{from: 0, round: 1, fragIdx: 5, fragCount: 6})[:4],
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, // varint overflow bait
	}
	seeds[0] = append(seeds[0], frame(1, 1, []byte{0x01}, []byte("x"))...)
	return seeds
}

// FuzzDecodeUDPFrame feeds arbitrary bytes through the whole datagram
// decode path the reader goroutine runs — header parse, fragment
// reassembly hardening, and the frame-body walk — mirroring the wire
// and runfile fuzzers that caught the varint-overflow panic. Dims are
// fuzzed alongside the bytes so the walk is exercised over many link
// shapes. Invariants:
//
//   - nothing panics, whatever the input;
//   - every accepted header satisfies its documented bounds, and the
//     reassembler never accepts a fragment count beyond the
//     transport-derived frame limit (allocation stays proportional to
//     configured dimensions, never to header contents);
//   - an accepted frame body walks to exactly snd sender callbacks,
//     payload nil iff no delivery bit is set, and re-encoding the walk
//     reproduces delivery-equivalent decode results.
func FuzzDecodeUDPFrame(f *testing.F) {
	for _, seed := range udpFuzzSeeds() {
		f.Add(seed, uint8(1), uint8(1))
		f.Add(seed, uint8(2), uint8(3))
	}
	f.Fuzz(func(t *testing.T, data []byte, sndB, rcvB uint8) {
		snd, rcv := 1+int(sndB)%8, 1+int(rcvB)%8

		// Layer 1: datagram header parse + reassembly hardening.
		if hdr, frag, err := parseUDPDatagram(data); err == nil {
			if hdr.round < 1 || hdr.fragCount < 1 || hdr.fragIdx >= hdr.fragCount || hdr.from < 0 {
				t.Fatalf("accepted header violates its bounds: %+v", hdr)
			}
			const chunk = 64
			ra := newUDPReasm(0, snd, rcv, chunk)
			if body, ok := ra.place(hdr, frag, hdr.round); ok && body != nil {
				if hdr.fragCount > ra.maxFrags {
					t.Fatalf("reassembler completed a frame with fragCount %d beyond limit %d",
						hdr.fragCount, ra.maxFrags)
				}
				if len(body) > ra.maxFrags*chunk {
					t.Fatalf("reassembled body %d bytes beyond the %d cap", len(body), ra.maxFrags*chunk)
				}
			}
		}

		// Layer 2: frame-body walk over fuzzed link dimensions — the one
		// decoder (frame.go) behind both the datagram and the stream link.
		type delivery struct {
			delivered int
			payload   []byte
		}
		var walked []delivery
		var bitmap []byte
		err := decodeFrameBody(data, snd, rcv, func(si, delivered int, payload, bits []byte) {
			if si != len(walked) {
				t.Fatalf("sender callbacks out of order: got %d, want %d", si, len(walked))
			}
			if (payload == nil) != (delivered == 0) {
				t.Fatalf("sender %d: payload nil = %v but delivered = %d", si, payload == nil, delivered)
			}
			walked = append(walked, delivery{delivered, append([]byte(nil), payload...)})
			bitmap = append(bitmap[:0], bits...)
		})
		if err != nil {
			return
		}
		if len(walked) != snd {
			t.Fatalf("accepted %dx%d frame walked %d senders", snd, rcv, len(walked))
		}
		// Re-encode canonically and require a delivery-equivalent walk:
		// the decoder tolerates non-minimal varints, so only semantics —
		// not bytes — must round-trip.
		re := append([]byte(nil), bitmap...)
		for _, d := range walked {
			if d.delivered > 0 {
				re = binary.AppendUvarint(re, uint64(len(d.payload)))
				re = append(re, d.payload...)
			}
		}
		i := 0
		if err := decodeFrameBody(re, snd, rcv, func(si, delivered int, payload, _ []byte) {
			if delivered != walked[i].delivered || !bytes.Equal(payload, walked[i].payload) {
				t.Fatalf("re-encoded frame changed sender %d: %d/%q vs %d/%q",
					si, delivered, payload, walked[i].delivered, walked[i].payload)
			}
			i++
		}); err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
	})
}

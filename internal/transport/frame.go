package transport

import (
	"encoding/binary"
	"fmt"
)

// This file is the codec of the coalesced round frame: the one message a
// mesh node sends a peer node per round, whichever link carries it. The
// decoder is a pure function of its byte input — no sockets, no state —
// which is what makes FuzzDecodeUDPFrame (udp_fuzz_test.go) a faithful
// model of both links' parse path.
//
// Frame body layout, for a node link from a node hosting S senders to a
// node hosting R receivers:
//
//	bitmap  ceil(S*R/8) bytes; bit si*R+qi (LSB first) = the round
//	        message of the sending node's si-th process to the peer's
//	        qi-th process is delivered (0 = drop tombstone)
//	then, for each sender si with at least one bit set:
//	        uvarint payload length, payload bytes
//
// Each sender's payload crosses the link exactly once, however many
// receivers the peer node hosts. The round number and the frame's
// delimiting are the link's business (a stream length-prefixes, a
// datagram link numbers fragments); see tcp.go and udp_frame.go.

// frameBodyLimit bounds a frame body for an snd-sender, rcv-receiver node
// link. Receive buffers are sized from this transport-derived bound,
// never from length fields alone.
func frameBodyLimit(snd, rcv int) int {
	return (snd*rcv+7)/8 + snd*(binary.MaxVarintLen64+maxPayload)
}

// appendFrameBody builds this node's round frame body for peer node j
// from the posts its ship claimed (nd.bufs, nd.rows): sender si's bitmap
// row is its delivery row cut to the peer's receivers, a dead local
// sender (nil post) ships as an all-links tombstone, and each delivering
// sender's payload follows once.
func (nd *meshNode) appendFrameBody(body []byte, j int) []byte {
	t, bufs, rows := nd.t, nd.bufs, nd.rows
	peerLo := t.nodeLo(j)
	rcv := t.nodeLo(j+1) - peerLo
	// The bitmap is zero-extended byte-wise so the buffer's capacity is
	// reused across frames instead of allocating a temp per frame.
	bitmapLen := (nd.localN()*rcv + 7) / 8
	bitOff := len(body)
	for i := bitmapLen; i > 0; i-- {
		body = append(body, 0)
	}
	bitmap := body[bitOff:]
	for si := 0; si < nd.localN(); si++ {
		if bufs[si] == nil {
			continue // dead sender: all its bits stay tombstones
		}
		any := false
		for qi := 0; qi < rcv; qi++ {
			if rows[si].Has(peerLo + qi) {
				bit := si*rcv + qi
				bitmap[bit>>3] |= 1 << (bit & 7)
				any = true
			}
		}
		if any {
			body = binary.AppendUvarint(body, uint64(len(bufs[si])))
			body = append(body, bufs[si]...)
			bitmap = body[bitOff : bitOff+bitmapLen] // append may have moved it
		}
	}
	return body
}

// decodeFrameBody validates and walks a frame body for an snd-sender,
// rcv-receiver node link. deliver is called exactly once per sender
// index si in [0, snd) until the walk ends or fails: payload is the
// sender's round payload (a view into body, valid only during the call)
// and delivered the number of set bits in its bitmap row — payload is
// nil iff delivered == 0 (an all-links tombstone). bitmap is the frame's
// full drop bitmap; bit si*rcv+qi (LSB first) reports delivery to local
// receiver qi.
//
// Allocation hardening mirrors the other decoders in the repo: every
// length is validated against the remaining input before it is used, so
// no input can make the walk read past the body or a caller allocate
// more than the bytes actually received.
func decodeFrameBody(body []byte, snd, rcv int, deliver func(si, delivered int, payload []byte, bitmap []byte)) error {
	if snd < 1 || rcv < 1 {
		return fmt.Errorf("transport: frame for %dx%d link", snd, rcv)
	}
	bitmapLen := (snd*rcv + 7) / 8
	if len(body) < bitmapLen {
		return fmt.Errorf("transport: frame: truncated bitmap")
	}
	bitmap := body[:bitmapLen]
	rest := body[bitmapLen:]
	for si := 0; si < snd; si++ {
		delivered := 0
		for qi := 0; qi < rcv; qi++ {
			bit := si*rcv + qi
			if bitmap[bit>>3]&(1<<(bit&7)) != 0 {
				delivered++
			}
		}
		if delivered == 0 {
			deliver(si, 0, nil, bitmap)
			continue
		}
		plen, k := binary.Uvarint(rest)
		if k <= 0 || plen > maxPayload || uint64(len(rest)-k) < plen {
			return fmt.Errorf("transport: frame: bad payload length for sender %d", si)
		}
		deliver(si, delivered, rest[k:k+int(plen)], bitmap)
		rest = rest[k+int(plen):]
	}
	if len(rest) != 0 {
		return fmt.Errorf("transport: frame: %d trailing bytes", len(rest))
	}
	return nil
}

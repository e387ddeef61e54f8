package transport

import (
	"encoding/binary"
	"fmt"
)

// This file is the pure codec of the datagram link's packet header.
// Everything here is a function of its byte inputs — no sockets, no
// state — which is what makes FuzzDecodeUDPFrame (udp_fuzz_test.go) a
// faithful model of the reader goroutine's parse path.
//
// Datagram layout (one UDP packet):
//
//	uvarint fromNode   sending node id
//	uvarint round      round the frame belongs to (>= 1)
//	uvarint fragIndex  0-based fragment number
//	uvarint fragCount  total fragments of this round frame (>= 1)
//	fragment bytes     body[fragIndex*chunk : ...] of the frame body
//
// The frame body is the mesh's coalesced round frame (frame.go). The
// round lives in every datagram header and datagrams are self-
// delimiting, so unlike the stream link nothing else is prefixed.
//
// Fragmentation is deterministic: both sides derive the same chunk size
// from the transport's datagram size, every fragment except the last
// carries exactly chunk bytes, and fragment i covers body bytes
// [i*chunk, min((i+1)*chunk, len)). A receiver therefore places
// fragments by index alone, in any arrival order, and validates the
// sizes instead of trusting them.

// udpHeaderMax bounds the encoded datagram header: four uvarints, each
// at most 5 bytes for the int32-bounded values the header carries.
const udpHeaderMax = 4 * 5

// udpHeader is a parsed datagram header.
type udpHeader struct {
	from      int // sending node id
	round     int
	fragIdx   int
	fragCount int
}

// appendUDPHeader encodes hdr onto dst.
func appendUDPHeader(dst []byte, hdr udpHeader) []byte {
	dst = binary.AppendUvarint(dst, uint64(hdr.from))
	dst = binary.AppendUvarint(dst, uint64(hdr.round))
	dst = binary.AppendUvarint(dst, uint64(hdr.fragIdx))
	dst = binary.AppendUvarint(dst, uint64(hdr.fragCount))
	return dst
}

// parseUDPDatagram splits a received packet into its header and fragment
// bytes. Every field is bounds-checked against the protocol's hard
// limits before anything is believed: values are capped below 1<<31 so
// later int arithmetic cannot overflow, and structural inconsistencies
// (fragIdx >= fragCount, round 0) are rejected here rather than at the
// reassembler.
func parseUDPDatagram(pkt []byte) (udpHeader, []byte, error) {
	var hdr udpHeader
	rest := pkt
	read := func(name string) (int, error) {
		v, k := binary.Uvarint(rest)
		if k <= 0 {
			return 0, fmt.Errorf("transport: udp datagram: bad %s varint", name)
		}
		if v >= 1<<31 {
			return 0, fmt.Errorf("transport: udp datagram: %s %d out of range", name, v)
		}
		rest = rest[k:]
		return int(v), nil
	}
	var err error
	if hdr.from, err = read("node"); err != nil {
		return hdr, nil, err
	}
	if hdr.round, err = read("round"); err != nil {
		return hdr, nil, err
	}
	if hdr.round < 1 {
		return hdr, nil, fmt.Errorf("transport: udp datagram: round 0")
	}
	if hdr.fragIdx, err = read("fragIndex"); err != nil {
		return hdr, nil, err
	}
	if hdr.fragCount, err = read("fragCount"); err != nil {
		return hdr, nil, err
	}
	if hdr.fragCount < 1 {
		return hdr, nil, fmt.Errorf("transport: udp datagram: fragCount 0")
	}
	if hdr.fragIdx >= hdr.fragCount {
		return hdr, nil, fmt.Errorf("transport: udp datagram: fragment %d of %d", hdr.fragIdx, hdr.fragCount)
	}
	return hdr, rest, nil
}

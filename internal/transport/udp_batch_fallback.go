//go:build !linux || (!amd64 && !arm64)

package transport

import (
	"errors"
	"net"
	"net/netip"
)

// Portable batch I/O: without sendmmsg/recvmmsg the batch degrades to
// one syscall per datagram, via the alloc-free AddrPort read/write
// calls. Semantics are identical to the Linux path — per-datagram send
// errors are loss, only a closed socket surfaces.

// udpSender is the node's batch sender, owned by its ship claim.
type udpSender struct {
	udpSendQueue
	conn  *net.UDPConn
	addrs []netip.AddrPort
}

func (s *udpSender) init(conn *net.UDPConn, addrs []netip.AddrPort) error {
	s.conn = conn
	s.addrs = addrs
	return nil
}

// flush ships the staged batch. Returns nil unless the socket itself is
// dead.
func (s *udpSender) flush() error {
	var fatal error
	for _, p := range s.pkts {
		if fatal != nil {
			break
		}
		if _, err := s.conn.WriteToUDPAddrPort(s.flat[p.start:p.end], s.addrs[p.dst]); err != nil {
			if errors.Is(err, net.ErrClosed) {
				fatal = err
			}
			// best-effort: any other error means this datagram is lost
		}
	}
	s.reset()
	return fatal
}

// udpReceiver is the reader loop's receiver.
type udpReceiver struct {
	conn *net.UDPConn
	buf  []byte
}

func (r *udpReceiver) init(conn *net.UDPConn, maxDatagram int) error {
	r.conn = conn
	r.buf = make([]byte, maxDatagram)
	return nil
}

// recv blocks for one datagram and hands it to the node. Returns an
// error only when the socket is closed.
func (r *udpReceiver) recv(nd *udpNode) error {
	n, from, err := r.conn.ReadFromUDPAddrPort(r.buf)
	if err != nil {
		return err
	}
	nd.handleDatagram(r.buf[:n], from)
	return nil
}

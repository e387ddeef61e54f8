//go:build linux && (amd64 || arm64)

package transport

import (
	"net"
	"net/netip"
	"syscall"
	"unsafe"
)

// Linux batch I/O: one sendmmsg ships a node's whole round (every
// fragment to every peer) and one recvmmsg drains up to udpBatch
// queued datagrams, so the syscall count per round drops from O(nodes)
// to O(1) per node in each direction. Everything syscall-shaped is
// hand-built from the syscall package — the repo takes no external
// dependencies — with the mmsghdr layout and (for sendmmsg on amd64,
// which the syscall package never picked up) the syscall number
// declared per architecture in udp_sysnum_linux_*.go.
//
// Error philosophy follows the transport: a datagram the kernel
// refuses (ENOBUFS, a peer's closed port, ...) is a lost datagram, not
// a failure — skip it and keep going. Only a dead socket (EBADF, or
// the RawConn reporting closure) surfaces, which happens on teardown
// or a genuinely broken node.

// udpBatch is the recvmmsg batch width.
const udpBatch = 32

// mmsgHdr mirrors struct mmsghdr: a msghdr plus the kernel-written
// datagram length, padded to the 8-byte array stride of the 64-bit
// ABI.
type mmsgHdr struct {
	hdr syscall.Msghdr
	len uint32
	_   [4]byte
}

// sa4Of converts a loopback peer address to the raw sockaddr the
// kernel wants (sin_port in network byte order).
func sa4Of(ap netip.AddrPort) syscall.RawSockaddrInet4 {
	sa := syscall.RawSockaddrInet4{Family: syscall.AF_INET, Addr: ap.Addr().As4()}
	p := ap.Port()
	b := (*[2]byte)(unsafe.Pointer(&sa.Port))
	b[0], b[1] = byte(p>>8), byte(p)
	return sa
}

// sa4Port reads a raw sockaddr's port back into host order.
func sa4Port(sa *syscall.RawSockaddrInet4) uint16 {
	b := (*[2]byte)(unsafe.Pointer(&sa.Port))
	return uint16(b[0])<<8 | uint16(b[1])
}

// udpSender is the node's batch sender, owned by its ship claim.
type udpSender struct {
	udpSendQueue
	conn   *net.UDPConn
	rc     syscall.RawConn
	sa4    []syscall.RawSockaddrInet4
	iovs   []syscall.Iovec
	hdrs   []mmsgHdr
	sent   int
	fatal  error
	sendFn func(fd uintptr) bool // allocated once; rc.Write(sendFn) is alloc-free
}

func (s *udpSender) init(conn *net.UDPConn, addrs []netip.AddrPort) error {
	s.conn = conn
	rc, err := conn.SyscallConn()
	if err != nil {
		return err
	}
	s.rc = rc
	s.sa4 = make([]syscall.RawSockaddrInet4, len(addrs))
	for i, ap := range addrs {
		s.sa4[i] = sa4Of(ap)
	}
	s.sendFn = func(fd uintptr) bool {
		for s.sent < len(s.hdrs) {
			n, _, errno := syscall.Syscall6(sysSendmmsg, fd,
				uintptr(unsafe.Pointer(&s.hdrs[s.sent])), uintptr(len(s.hdrs)-s.sent), 0, 0, 0)
			switch {
			case errno == 0:
				s.sent += int(n)
			case errno == syscall.EINTR:
			case errno == syscall.EAGAIN:
				return false // park on the netpoller until writable
			case errno == syscall.EBADF:
				s.fatal = errno
				return true
			default:
				s.sent++ // best-effort: this datagram is lost
			}
		}
		return true
	}
	return nil
}

// flush ships the staged batch. Returns nil unless the socket itself is
// dead.
func (s *udpSender) flush() error {
	if len(s.pkts) == 0 {
		return nil
	}
	if cap(s.iovs) < len(s.pkts) {
		s.iovs = make([]syscall.Iovec, len(s.pkts))
		s.hdrs = make([]mmsgHdr, len(s.pkts))
	}
	s.iovs = s.iovs[:len(s.pkts)]
	s.hdrs = s.hdrs[:len(s.pkts)]
	namelen := uint32(unsafe.Sizeof(syscall.RawSockaddrInet4{}))
	for i, p := range s.pkts {
		s.iovs[i].Base = &s.flat[p.start]
		s.iovs[i].Len = uint64(p.end - p.start)
		h := &s.hdrs[i]
		h.hdr.Name = (*byte)(unsafe.Pointer(&s.sa4[p.dst]))
		h.hdr.Namelen = namelen
		h.hdr.Iov = &s.iovs[i]
		h.hdr.Iovlen = 1
		h.len = 0
	}
	s.sent, s.fatal = 0, nil
	err := s.rc.Write(s.sendFn)
	s.reset()
	if err != nil {
		return err
	}
	return s.fatal
}

// udpReceiver is the reader loop's batch receiver.
type udpReceiver struct {
	conn   *net.UDPConn
	rc     syscall.RawConn
	max    int
	bufs   []byte // udpBatch fixed-stride datagram buffers
	iovs   [udpBatch]syscall.Iovec
	hdrs   [udpBatch]mmsgHdr
	names  [udpBatch]syscall.RawSockaddrInet4
	got    int
	fatal  error
	recvFn func(fd uintptr) bool
}

func (r *udpReceiver) init(conn *net.UDPConn, maxDatagram int) error {
	r.conn = conn
	r.max = maxDatagram
	rc, err := conn.SyscallConn()
	if err != nil {
		return err
	}
	r.rc = rc
	r.bufs = make([]byte, udpBatch*maxDatagram)
	for i := 0; i < udpBatch; i++ {
		r.iovs[i].Base = &r.bufs[i*maxDatagram]
		r.iovs[i].Len = uint64(maxDatagram)
		h := &r.hdrs[i]
		h.hdr.Name = (*byte)(unsafe.Pointer(&r.names[i]))
		h.hdr.Iov = &r.iovs[i]
		h.hdr.Iovlen = 1
	}
	namelen := uint32(unsafe.Sizeof(syscall.RawSockaddrInet4{}))
	r.recvFn = func(fd uintptr) bool {
		for i := range r.hdrs {
			r.hdrs[i].hdr.Namelen = namelen
		}
		for {
			n, _, errno := syscall.Syscall6(syscall.SYS_RECVMMSG, fd,
				uintptr(unsafe.Pointer(&r.hdrs[0])), udpBatch, 0, 0, 0)
			switch {
			case errno == 0:
				r.got = int(n)
				return true
			case errno == syscall.EINTR:
			case errno == syscall.EAGAIN:
				return false // park on the netpoller until readable
			default:
				r.fatal = errno
				return true
			}
		}
	}
	return nil
}

// recv blocks for at least one datagram, drains up to a batch, and
// hands each to the node. Returns an error only when the socket is
// closed or dead.
func (r *udpReceiver) recv(nd *udpNode) error {
	r.got, r.fatal = 0, nil
	if err := r.rc.Read(r.recvFn); err != nil {
		return err
	}
	if r.fatal != nil {
		return r.fatal
	}
	for i := 0; i < r.got; i++ {
		ln := int(r.hdrs[i].len)
		if ln > r.max {
			ln = r.max // kernel-truncated oversize datagram
		}
		sa := &r.names[i]
		if sa.Family != syscall.AF_INET {
			continue
		}
		ap := netip.AddrPortFrom(netip.AddrFrom4(sa.Addr), sa4Port(sa))
		nd.handleDatagram(r.bufs[i*r.max:i*r.max+ln], ap)
	}
	return nil
}

package transport

// InProc is the in-process transport: the mesh with a single node and
// no link. Broadcast is one write into that node's mailbox, which every
// receiver reads — no goroutines, no sockets, no OS involvement — and
// rounds close by count. The ring slot's own buffer holds the one copy
// of the payload, so the steady-state round is allocation-free. It is
// the transport of choice for the agreement service's sessions and the
// reference implementation of the transport contract.
type InProc struct{ *mesh }

// NewInProc returns an in-process transport for n processes under the
// given policy (nil: every link delivers).
func NewInProc(n int, pol Policy) *InProc {
	core, err := newMesh(n, 1, pol, meshOpts{})
	if err != nil {
		panic(err.Error()) // n < 1: a caller bug, as it always was here
	}
	return &InProc{core}
}

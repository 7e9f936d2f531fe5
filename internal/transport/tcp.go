package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"

	"cormi/internal/wire"
)

// TCPNetwork connects nodes over TCP with length-prefixed frames. Each
// frame carries a 24-byte header (length, sender id, virtual
// timestamp, wall-clock trace timestamp) followed by the payload.
// Connections are dialed lazily and cached.
//
// Buffer ownership: Send writes the payload to the socket and then
// releases it to the wire pool (the sender gave up ownership per the
// Endpoint.Send contract); the read loop reads payloads into pooled
// buffers, so steady-state traffic allocates nothing on either side.
type TCPNetwork struct {
	addrs     []string
	listeners []net.Listener
	eps       []*tcpEndpoint

	mu     sync.Mutex
	closed bool
}

// NewTCPNetworkLocal starts an n-node TCP network entirely on the
// loopback interface, used by tests and the distributed-mode demo.
func NewTCPNetworkLocal(n int) (*TCPNetwork, error) {
	tn := &TCPNetwork{
		addrs:     make([]string, n),
		listeners: make([]net.Listener, n),
		eps:       make([]*tcpEndpoint, n),
	}
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tn.Close()
			return nil, err
		}
		tn.listeners[i] = l
		tn.addrs[i] = l.Addr().String()
	}
	for i := 0; i < n; i++ {
		ep := &tcpEndpoint{
			net:   tn,
			id:    i,
			inbox: make(chan Packet, 256),
			done:  make(chan struct{}),
			conns: make(map[int]net.Conn),
		}
		tn.eps[i] = ep
		go ep.acceptLoop(tn.listeners[i])
	}
	return tn, nil
}

// Size returns the node count.
func (tn *TCPNetwork) Size() int { return len(tn.addrs) }

// Endpoint returns node's attachment.
func (tn *TCPNetwork) Endpoint(node int) Endpoint { return tn.eps[node] }

// Close shuts down listeners and connections.
func (tn *TCPNetwork) Close() error {
	tn.mu.Lock()
	if tn.closed {
		tn.mu.Unlock()
		return nil
	}
	tn.closed = true
	tn.mu.Unlock()
	for _, l := range tn.listeners {
		if l != nil {
			l.Close()
		}
	}
	for _, ep := range tn.eps {
		if ep != nil {
			ep.close()
		}
	}
	return nil
}

type tcpEndpoint struct {
	net *TCPNetwork
	id  int
	// inbox is never closed — concurrent readLoops may be mid-send.
	// done signals shutdown instead; Recv drains what is buffered and
	// then reports closure.
	inbox chan Packet
	done  chan struct{}

	mu     sync.Mutex
	conns  map[int]net.Conn // outgoing, keyed by destination
	accept []net.Conn       // incoming
	closed bool
}

func (e *tcpEndpoint) acceptLoop(l net.Listener) {
	for {
		c, err := l.Accept()
		if err != nil {
			return
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			c.Close()
			return
		}
		e.accept = append(e.accept, c)
		e.mu.Unlock()
		go e.readLoop(c)
	}
}

// tcpMetaSize is the per-frame metadata after the length prefix:
// sender id (uint32), virtual timestamp (uint64), and wall-clock send
// timestamp (uint64, zero when tracing is off) — the trace layer's
// transit measurements survive the real network stack.
const tcpMetaSize = 20

func (e *tcpEndpoint) readLoop(c net.Conn) {
	// Whatever ends the loop — a bad preamble or frame, a short read,
	// the peer hanging up, or shutdown — the connection is finished.
	defer e.dropAccepted(c)
	// Every connection opens with the wire preamble (magic + protocol
	// version, written by the dialer below): a peer speaking another
	// protocol or version is rejected from its first six bytes instead
	// of having its stream misparsed as frames.
	var pre [wire.PreambleSize]byte
	if _, err := io.ReadFull(c, pre[:]); err != nil {
		return
	}
	if err := wire.CheckPreamble(pre[:]); err != nil {
		return
	}
	// The 24-byte header (length + metadata) lands in a stack buffer;
	// only the payload is read into a pooled buffer, so recycling loses
	// no capacity to header prefixes.
	var hdr [4 + tcpMetaSize]byte
	for {
		if _, err := io.ReadFull(c, hdr[:4]); err != nil {
			return
		}
		n := binary.LittleEndian.Uint32(hdr[:4])
		if n > wire.MaxFrameSize {
			return
		}
		if n < tcpMetaSize {
			// Runt frame: discard its bytes to stay in sync.
			if _, err := io.CopyN(io.Discard, c, int64(n)); err != nil {
				return
			}
			continue
		}
		if _, err := io.ReadFull(c, hdr[4:]); err != nil {
			return
		}
		payload := wire.GetBuf(int(n) - tcpMetaSize)
		if _, err := io.ReadFull(c, payload); err != nil {
			wire.PutBuf(payload)
			return
		}
		p := stampRecv(Packet{
			From:    int(int32(binary.LittleEndian.Uint32(hdr[4:]))),
			TS:      int64(binary.LittleEndian.Uint64(hdr[8:])),
			Wall:    int64(binary.LittleEndian.Uint64(hdr[16:])),
			To:      e.id,
			Payload: payload,
		})
		select {
		case e.inbox <- p:
		case <-e.done:
			wire.PutBuf(payload)
			return
		}
	}
}

// dropAccepted closes an incoming connection and forgets it.
func (e *tcpEndpoint) dropAccepted(c net.Conn) {
	c.Close()
	e.mu.Lock()
	for i, a := range e.accept {
		if a == c {
			e.accept = append(e.accept[:i], e.accept[i+1:]...)
			break
		}
	}
	e.mu.Unlock()
}

func (e *tcpEndpoint) Send(p Packet) error {
	if p.To < 0 || p.To >= e.net.Size() {
		return fmt.Errorf("transport: no node %d", p.To)
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	c, ok := e.conns[p.To]
	e.mu.Unlock()
	if !ok {
		var err error
		c, err = net.Dial("tcp", e.net.addrs[p.To])
		if err != nil {
			return err
		}
		// Stamp the fresh connection with the version preamble before
		// any frame. If we lose the caching race the duplicate dial is
		// closed; its receiver-side readLoop sees a valid preamble
		// followed by EOF, which is a clean no-traffic connection.
		pre := wire.Preamble()
		if _, err := c.Write(pre[:]); err != nil {
			c.Close()
			return err
		}
		e.mu.Lock()
		if prev, raced := e.conns[p.To]; raced {
			c.Close()
			c = prev
		} else {
			e.conns[p.To] = c
		}
		e.mu.Unlock()
	}
	if tcpMetaSize+len(p.Payload) > wire.MaxFrameSize {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit", tcpMetaSize+len(p.Payload))
	}
	// Header from the stack, payload straight from the caller's buffer:
	// no frame assembly copy, no allocation.
	var hdr [4 + tcpMetaSize]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(tcpMetaSize+len(p.Payload)))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(e.id))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(p.TS))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(p.Wall))

	// Serialize writes per connection.
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	_, err := c.Write(hdr[:])
	if err == nil {
		_, err = c.Write(p.Payload)
	}
	e.mu.Unlock()
	if err == nil {
		// The bytes are on the wire and the sender gave up ownership:
		// recycle the buffer.
		wire.PutBuf(p.Payload)
	}
	return err
}

func (e *tcpEndpoint) Recv() (Packet, bool) {
	select {
	case p := <-e.inbox:
		return p, true
	case <-e.done:
		// Shutdown: hand out whatever is still buffered, then report
		// closure.
		select {
		case p := <-e.inbox:
			return p, true
		default:
			return Packet{}, false
		}
	}
}

func (e *tcpEndpoint) Close() error { return e.net.Close() }

func (e *tcpEndpoint) close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	for _, c := range e.conns {
		c.Close()
	}
	for _, c := range e.accept {
		c.Close()
	}
	close(e.done)
	e.mu.Unlock()
}

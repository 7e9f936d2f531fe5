package transport

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"syscall"
	"testing"
	"time"

	"cormi/internal/wire"
)

// waitAccepted polls until node's endpoint tracks want incoming
// connections, failing the test after a bounded wait.
func waitAccepted(t *testing.T, tn *TCPNetwork, node, want int) {
	t.Helper()
	e := tn.eps[node]
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		e.mu.Lock()
		n := len(e.accept)
		e.mu.Unlock()
		if n == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("node %d tracks %d incoming connections, want %d", node, n, want)
		}
	}
}

// Every way the read loop can end must close the connection and stop
// tracking it: an oversize length prefix (the client then reads EOF or
// a reset, not a timeout) and a peer hanging up mid-header.
func TestTCPReadLoopDropsConn(t *testing.T) {
	var oversize [4]byte
	binary.LittleEndian.PutUint32(oversize[:], wire.MaxFrameSize+1)
	for _, tc := range []struct {
		name   string
		after  []byte // written after a valid preamble
		hangup bool   // the client closes its side
	}{
		{"oversize", oversize[:], false},
		{"short-header", oversize[:2], true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tn, err := NewTCPNetworkLocal(1)
			if err != nil {
				t.Fatal(err)
			}
			defer tn.Close()
			c, err := net.Dial("tcp", tn.addrs[0])
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			pre := wire.Preamble()
			if _, err := c.Write(pre[:]); err != nil {
				t.Fatal(err)
			}
			waitAccepted(t, tn, 0, 1)
			if _, err := c.Write(tc.after); err != nil {
				t.Fatal(err)
			}
			if tc.hangup {
				c.Close()
			} else {
				c.SetReadDeadline(time.Now().Add(5 * time.Second))
				var buf [1]byte
				_, err := c.Read(buf[:])
				if !errors.Is(err, io.EOF) && !errors.Is(err, syscall.ECONNRESET) {
					t.Fatalf("client read: %v, want EOF or connection reset", err)
				}
			}
			waitAccepted(t, tn, 0, 0)
		})
	}
}

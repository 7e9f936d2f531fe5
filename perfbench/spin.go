package main

import (
	"time"

	"cormi/internal/transport"
)

// spinNetwork decorates a transport.Network so that every Send first
// busy-waits for a fixed time: the known transport slowdown the
// sensitivity self-test injects to prove the benchmark sees it.
type spinNetwork struct {
	transport.Network
	spin time.Duration
}

func (s spinNetwork) Endpoint(node int) transport.Endpoint {
	return spinEndpoint{s.Network.Endpoint(node), s.spin}
}

type spinEndpoint struct {
	transport.Endpoint
	spin time.Duration
}

func (e spinEndpoint) Send(p transport.Packet) error {
	for start := time.Now(); time.Since(start) < e.spin; {
	}
	return e.Endpoint.Send(p)
}

// newNetwork starts a fresh 2-node network of the workload's kind,
// wrapped in the spin decorator when cfg asks for one.
func newNetwork(tcp bool, spin time.Duration) (transport.Network, error) {
	var nw transport.Network
	if tcp {
		t, err := transport.NewTCPNetworkLocal(2)
		if err != nil {
			return nil, err
		}
		nw = t
	} else {
		// 1024 is the inbox depth rmi.New gives its default network.
		nw = transport.NewChannelNetwork(2, 1024)
	}
	if spin > 0 {
		nw = spinNetwork{nw, spin}
	}
	return nw, nil
}

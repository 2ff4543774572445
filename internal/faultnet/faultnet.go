// Package faultnet is an in-process TCP fault-injecting proxy: the
// network counterpart of internal/faultfs. A Proxy listens on a
// loopback port and forwards byte streams to a real backend, applying
// whatever faults are currently configured — added latency, connection
// resets (immediate, or after a byte budget), blackholes (bytes
// swallowed, nothing ever answers), torn responses (only a prefix of
// the backend's reply reaches the client) and bandwidth caps. Faults
// are runtime-reconfigurable: Set swaps the active fault plan and
// in-flight connections pick it up on their next chunk, so a test can
// let traffic flow, pull the network out from under it, and heal it
// again without restarting anything.
//
// The chaos suite in internal/chaos points a crowdclient at a Proxy in
// front of a crowddb.Server and asserts the end-to-end resilience
// invariants: no acked mutation lost, breakers open under blackhole
// and close after heal, selections keep flowing.
package faultnet

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Faults is one fault plan. The zero value forwards traffic untouched.
// Byte thresholds are evaluated per connection, against that
// connection's own forwarded-byte counters.
type Faults struct {
	// Latency is added before each forwarded chunk, in each direction
	// (a crude but effective slow link).
	Latency time.Duration
	// ResetOnConnect kills every newly accepted connection with a TCP
	// RST before any byte flows.
	ResetOnConnect bool
	// ResetAfterBytes, when > 0, resets the connection (both legs,
	// RST) once this many client→server bytes have been forwarded.
	ResetAfterBytes int64
	// Blackhole swallows everything: accepted connections stay open
	// and readable, but no byte is forwarded in either direction, so
	// clients hang until their own timeouts fire. New connections are
	// accepted but never dialed through.
	Blackhole bool
	// DropUpstream / DropDownstream are one-way blackholes — an
	// asymmetric partition. DropUpstream swallows client→server bytes
	// (requests vanish, the backend's unprompted bytes still flow
	// down); DropDownstream swallows server→client bytes (requests
	// arrive, the answers vanish). Connections still establish at the
	// proxy, and established streams stay up in the surviving
	// direction — the nasty real-world failure where one side of a
	// link believes everything is fine. Both set ≡ Blackhole, except
	// the backend is still dialed.
	DropUpstream   bool
	DropDownstream bool
	// PartialWriteBytes, when > 0, lets exactly that many server→client
	// bytes through per connection, then tears it — a torn response.
	PartialWriteBytes int64
	// BandwidthBytesPerSec, when > 0, caps the forwarding rate in each
	// direction.
	BandwidthBytesPerSec int64
}

// Stats counts what the proxy did since creation.
type Stats struct {
	// Accepted is the number of client connections accepted.
	Accepted int64
	// Dialed is the number of backend connections established.
	Dialed int64
	// Resets is the number of connections the proxy killed with a RST
	// (on-connect resets, byte-budget resets and torn responses).
	Resets int64
	// BytesUp / BytesDown are forwarded bytes client→server and
	// server→client.
	BytesUp   int64
	BytesDown int64
	// Blackholed is the number of chunks swallowed by a blackhole.
	Blackholed int64
}

// Proxy is the fault-injecting TCP forwarder. Create with Listen, point
// clients at Addr, reconfigure with Set/Heal, and Close when done. All
// methods are safe for concurrent use.
type Proxy struct {
	target string
	ln     net.Listener

	mu     sync.Mutex
	faults Faults
	conns  map[net.Conn]struct{}

	accepted   atomic.Int64
	dialed     atomic.Int64
	resets     atomic.Int64
	bytesUp    atomic.Int64
	bytesDown  atomic.Int64
	blackholed atomic.Int64

	closed atomic.Bool
	wg     sync.WaitGroup
}

// Listen starts a proxy on 127.0.0.1:0 forwarding to target
// (host:port). It starts with no faults.
func Listen(target string) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{target: target, ln: ln, conns: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr is the proxy's listen address (host:port) for clients.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// URL is the proxy address as an http base URL.
func (p *Proxy) URL() string { return "http://" + p.Addr() }

// Set replaces the active fault plan. In-flight connections see the
// new plan on their next forwarded chunk.
func (p *Proxy) Set(f Faults) {
	p.mu.Lock()
	p.faults = f
	p.mu.Unlock()
}

// Heal clears every fault (Set of the zero plan).
func (p *Proxy) Heal() { p.Set(Faults{}) }

// current snapshots the active fault plan.
func (p *Proxy) current() Faults {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.faults
}

// CutActive resets every live connection (RST both legs). Combine with
// Set(Faults{Blackhole: true}) to sever pooled keep-alive connections
// so clients must re-dial into the fault.
func (p *Proxy) CutActive() {
	p.mu.Lock()
	conns := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	for _, c := range conns {
		p.reset(c)
	}
}

// Stats snapshots the proxy counters.
func (p *Proxy) Stats() Stats {
	return Stats{
		Accepted:   p.accepted.Load(),
		Dialed:     p.dialed.Load(),
		Resets:     p.resets.Load(),
		BytesUp:    p.bytesUp.Load(),
		BytesDown:  p.bytesDown.Load(),
		Blackholed: p.blackholed.Load(),
	}
}

// Close stops accepting, resets every live connection and waits for
// the pumps to drain.
func (p *Proxy) Close() error {
	if !p.closed.CompareAndSwap(false, true) {
		return nil
	}
	err := p.ln.Close()
	p.CutActive()
	p.wg.Wait()
	return err
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		p.accepted.Add(1)
		p.track(c)
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.handle(c)
		}()
	}
}

func (p *Proxy) track(c net.Conn) {
	p.mu.Lock()
	p.conns[c] = struct{}{}
	p.mu.Unlock()
}

func (p *Proxy) forget(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

// reset kills a connection with a RST (SetLinger(0) forces the reset
// instead of a graceful FIN) and counts it. It counts first, so a peer
// that has seen the RST also sees it in Stats.
func (p *Proxy) reset(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	p.resets.Add(1)
	c.Close()
}

// handle owns one client connection end to end.
func (p *Proxy) handle(client net.Conn) {
	defer p.forget(client)
	f := p.current()
	if f.ResetOnConnect {
		p.reset(client)
		return
	}
	if f.Blackhole {
		// Never dial the backend: swallow whatever the client sends
		// until it gives up or the proxy closes.
		p.swallow(client)
		client.Close()
		return
	}
	backend, err := net.Dial("tcp", p.target)
	if err != nil {
		p.reset(client)
		return
	}
	p.dialed.Add(1)
	p.track(backend)
	defer p.forget(backend)

	pair := &connPair{client: client, backend: backend}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		p.pump(pair, true)
	}()
	go func() {
		defer wg.Done()
		p.pump(pair, false)
	}()
	wg.Wait()
	client.Close()
	backend.Close()
}

// swallow reads and discards until the connection errors out.
func (p *Proxy) swallow(c net.Conn) {
	buf := make([]byte, 4096)
	for {
		n, err := c.Read(buf)
		if n > 0 {
			p.blackholed.Add(1)
		}
		if err != nil {
			return
		}
	}
}

// connPair is one proxied connection with its per-connection fault
// counters (byte thresholds are per connection, not global).
type connPair struct {
	client, backend net.Conn
	up, down        atomic.Int64 // forwarded bytes per direction
	dead            atomic.Bool
	// spent is set before the chunk that reaches ResetAfterBytes goes
	// up, so no reply the backend sends to it can reach the client
	// before the reset.
	spent atomic.Bool
}

// kill resets both legs once.
func (p *Proxy) kill(pair *connPair) {
	if !pair.dead.CompareAndSwap(false, true) {
		return
	}
	p.reset(pair.client)
	p.reset(pair.backend)
}

// tear is kill for a torn response: the client leg closes with a FIN
// behind the prefix written, which a reset would let its kernel drop.
func (p *Proxy) tear(pair *connPair) {
	if pair.dead.CompareAndSwap(false, true) {
		pair.client.Close()
		p.reset(pair.backend)
	}
}

// pump forwards one direction, applying the live fault plan per chunk.
// up is client→server.
func (p *Proxy) pump(pair *connPair, up bool) {
	src, dst := pair.backend, pair.client
	dirBytes, total := &p.bytesDown, &pair.down
	if up {
		src, dst = pair.client, pair.backend
		dirBytes, total = &p.bytesUp, &pair.up
	}
	buf := make([]byte, 16<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			f := p.current()
			switch {
			case f.Blackhole, up && f.DropUpstream, !up && f.DropDownstream:
				// Swallow from here on; the connection stays up but
				// goes silent (in this direction, for the one-way drops).
				p.blackholed.Add(1)
			case !up && pair.spent.Load():
				p.kill(pair)
				return
			default:
				chunk := buf[:n]
				spent := up && f.ResetAfterBytes > 0 && total.Load()+int64(n) >= f.ResetAfterBytes
				if spent {
					pair.spent.Store(true)
				}
				// Torn response: only a prefix of the reply reaches the client.
				torn := !up && f.PartialWriteBytes > 0 && total.Load()+int64(n) >= f.PartialWriteBytes
				if torn {
					chunk = chunk[:max(f.PartialWriteBytes-total.Load(), 0)]
				}
				if f.Latency > 0 {
					time.Sleep(f.Latency)
				}
				if f.BandwidthBytesPerSec > 0 {
					time.Sleep(time.Duration(int64(n) * int64(time.Second) / f.BandwidthBytesPerSec))
				}
				if _, werr := dst.Write(chunk); werr != nil {
					p.kill(pair)
					return
				}
				total.Add(int64(len(chunk)))
				dirBytes.Add(int64(len(chunk)))
				if torn {
					p.tear(pair)
					return
				}
				if spent {
					p.kill(pair)
					return
				}
			}
		}
		if err != nil {
			if !errors.Is(err, io.EOF) {
				p.kill(pair)
				return
			}
			if f := p.current(); f.Blackhole || (up && f.DropUpstream) || (!up && f.DropDownstream) {
				// The FIN is dropped with everything else: the other
				// side must not learn the stream ended.
				return
			}
			// Graceful half-close: propagate the EOF downstream.
			if cw, ok := dst.(interface{ CloseWrite() error }); ok {
				cw.CloseWrite()
			}
			return
		}
	}
}

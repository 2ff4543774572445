package faultnet

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// echoBackend starts a plain HTTP server answering "pong" and returns
// its host:port.
func echoBackend(t *testing.T) string {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "pong")
	}))
	t.Cleanup(ts.Close)
	return strings.TrimPrefix(ts.URL, "http://")
}

func proxyFor(t *testing.T, target string) *Proxy {
	t.Helper()
	p, err := Listen(target)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// shortClient is an HTTP client with a timeout small enough that
// blackhole tests do not stall the suite, and no connection reuse so
// every request exercises the proxy's accept path.
func shortClient(timeout time.Duration) *http.Client {
	return &http.Client{
		Timeout:   timeout,
		Transport: &http.Transport{DisableKeepAlives: true},
	}
}

func TestProxyPassThrough(t *testing.T) {
	p := proxyFor(t, echoBackend(t))
	resp, err := shortClient(2 * time.Second).Get(p.URL())
	if err != nil {
		t.Fatalf("GET through healthy proxy: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "pong" {
		t.Errorf("body = %q, want pong", body)
	}
	// The proxy counts a chunk after writing it, so the client can hold
	// the whole reply a moment before the byte counters say so.
	st := p.Stats()
	for deadline := time.Now().Add(2 * time.Second); (st.BytesUp == 0 || st.BytesDown == 0) && time.Now().Before(deadline); st = p.Stats() {
		time.Sleep(time.Millisecond)
	}
	if st.Accepted != 1 || st.Dialed != 1 || st.BytesUp == 0 || st.BytesDown == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestProxyResetOnConnect(t *testing.T) {
	p := proxyFor(t, echoBackend(t))
	p.Set(Faults{ResetOnConnect: true})
	if _, err := shortClient(2 * time.Second).Get(p.URL()); err == nil {
		t.Fatal("GET through reset-on-connect proxy succeeded")
	}
	if st := p.Stats(); st.Resets == 0 || st.Dialed != 0 {
		t.Errorf("stats = %+v, want resets>0 dialed=0", st)
	}
}

func TestProxyBlackholeThenHeal(t *testing.T) {
	p := proxyFor(t, echoBackend(t))
	p.Set(Faults{Blackhole: true})
	cli := shortClient(150 * time.Millisecond)
	if _, err := cli.Get(p.URL()); err == nil {
		t.Fatal("GET through blackhole succeeded")
	}
	if st := p.Stats(); st.Blackholed == 0 {
		t.Errorf("stats = %+v, want blackholed chunks", st)
	}
	p.Heal()
	resp, err := shortClient(2 * time.Second).Get(p.URL())
	if err != nil {
		t.Fatalf("GET after heal: %v", err)
	}
	resp.Body.Close()
}

func TestProxyPartialWrite(t *testing.T) {
	// A torn response: the client sees a reset mid-body.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, strings.Repeat("x", 64<<10))
	}))
	t.Cleanup(ts.Close)
	p := proxyFor(t, strings.TrimPrefix(ts.URL, "http://"))
	p.Set(Faults{PartialWriteBytes: 100})
	resp, err := shortClient(2 * time.Second).Get(p.URL())
	if err == nil {
		_, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	if err == nil {
		t.Fatal("torn response read cleanly")
	}
	if st := p.Stats(); st.BytesDown > 100 {
		t.Errorf("forwarded %d bytes down, cap was 100", st.BytesDown)
	}
}

func TestProxyResetAfterBytes(t *testing.T) {
	p := proxyFor(t, echoBackend(t))
	p.Set(Faults{ResetAfterBytes: 10})
	// The request line alone exceeds 10 bytes, so the connection dies
	// with the request's first chunk and no reply gets back.
	if _, err := shortClient(2 * time.Second).Get(p.URL()); err == nil {
		t.Fatal("request through byte-budget reset succeeded")
	}
	if st := p.Stats(); st.Resets == 0 {
		t.Errorf("stats = %+v, want resets", st)
	}
}

func TestProxyLatency(t *testing.T) {
	p := proxyFor(t, echoBackend(t))
	p.Set(Faults{Latency: 50 * time.Millisecond})
	start := time.Now()
	resp, err := shortClient(5 * time.Second).Get(p.URL())
	if err != nil {
		t.Fatalf("GET through slow proxy: %v", err)
	}
	io.ReadAll(resp.Body)
	resp.Body.Close()
	// Request and response each cross the proxy at least once.
	if d := time.Since(start); d < 100*time.Millisecond {
		t.Errorf("round trip took %v, want ≥ 100ms of injected latency", d)
	}
}

func TestProxyCutActive(t *testing.T) {
	// A backend that never answers keeps the connection alive until the
	// proxy cuts it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { io.Copy(io.Discard, c) }() // read forever, answer never
		}
	}()
	p := proxyFor(t, ln.Addr().String())

	errc := make(chan error, 1)
	go func() {
		_, err := shortClient(5 * time.Second).Get(p.URL())
		errc <- err
	}()
	// Wait for the connection to establish, then cut it.
	deadline := time.Now().Add(2 * time.Second)
	for p.Stats().Dialed == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	p.CutActive()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("request survived CutActive")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("request not terminated by CutActive")
	}
}

func TestProxyRuntimeReconfigure(t *testing.T) {
	p := proxyFor(t, echoBackend(t))
	cli := shortClient(2 * time.Second)
	for i := 0; i < 3; i++ {
		p.Heal()
		resp, err := cli.Get(p.URL())
		if err != nil {
			t.Fatalf("healthy round %d: %v", i, err)
		}
		resp.Body.Close()
		p.Set(Faults{ResetOnConnect: true})
		if _, err := cli.Get(fmt.Sprintf("%s/?round=%d", p.URL(), i)); err == nil {
			t.Fatalf("faulted round %d succeeded", i)
		}
	}
}

// TestProxyOneWayDrops covers the asymmetric-partition modes: each
// direction can go silent independently, the connection still
// establishes (the backend is dialed), the surviving direction keeps
// flowing on an established stream, and healing restores both.
func TestProxyOneWayDrops(t *testing.T) {
	p := proxyFor(t, echoBackend(t))
	cli := shortClient(150 * time.Millisecond)

	// Upstream dropped: the request never reaches the backend, so the
	// client times out — but the proxy did dial through.
	p.Set(Faults{DropUpstream: true})
	if _, err := cli.Get(p.URL()); err == nil {
		t.Fatal("GET with upstream dropped succeeded")
	}
	if st := p.Stats(); st.Dialed == 0 || st.Blackholed == 0 {
		t.Errorf("drop-upstream stats = %+v, want dialed>0 blackholed>0", st)
	}

	// Downstream dropped: the request arrives (the backend answers into
	// the void), the client still times out waiting for the reply.
	p.Heal()
	p.Set(Faults{DropDownstream: true})
	up := p.Stats().BytesUp
	if _, err := cli.Get(p.URL()); err == nil {
		t.Fatal("GET with downstream dropped succeeded")
	}
	if st := p.Stats(); st.BytesUp <= up {
		t.Errorf("drop-downstream forwarded no request bytes: %+v", st)
	}

	p.Heal()
	resp, err := shortClient(2 * time.Second).Get(p.URL())
	if err != nil {
		t.Fatalf("GET after heal: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "pong" {
		t.Errorf("healed body = %q, want pong", body)
	}
}

// TestProxyOneWayDropSilencesEstablishedStream is the nasty real-world
// case the drill leans on: a long-lived connection is up and flowing
// when one direction goes dark mid-stream. The surviving direction
// keeps delivering and the silenced side sees no FIN — just silence.
func TestProxyOneWayDropSilencesEstablishedStream(t *testing.T) {
	// A raw TCP echo backend that writes a banner on connect, then
	// echoes lines, so both directions can be probed independently.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				io.WriteString(c, "banner\n")
				buf := make([]byte, 1024)
				for {
					n, err := c.Read(buf)
					if n > 0 {
						c.Write(buf[:n])
					}
					if err != nil {
						return
					}
				}
			}(c)
		}
	}()

	p := proxyFor(t, ln.Addr().String())
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	readLine := func(want string) error {
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		buf := make([]byte, len(want))
		if _, err := io.ReadFull(conn, buf); err != nil {
			return err
		}
		if string(buf) != want {
			return fmt.Errorf("read %q, want %q", buf, want)
		}
		return nil
	}
	if err := readLine("banner\n"); err != nil {
		t.Fatalf("banner through healthy proxy: %v", err)
	}
	if _, err := io.WriteString(conn, "ping\n"); err != nil {
		t.Fatal(err)
	}
	if err := readLine("ping\n"); err != nil {
		t.Fatalf("echo through healthy proxy: %v", err)
	}

	// Cut the upstream direction mid-stream: writes vanish, so nothing
	// echoes back — the read deadline fires instead of an EOF or RST,
	// because a one-way drop must look like silence, not a close.
	p.Set(Faults{DropUpstream: true})
	if _, err := io.WriteString(conn, "lost\n"); err != nil {
		t.Fatalf("write into dropped direction errored immediately: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	one := make([]byte, 1)
	if _, err := conn.Read(one); !isTimeout(err) {
		t.Fatalf("read after one-way drop = %v, want timeout (silence)", err)
	}

	// Heal: the stream itself survived the partition, and new writes
	// flow again on the same connection.
	p.Heal()
	if _, err := io.WriteString(conn, "back\n"); err != nil {
		t.Fatal(err)
	}
	if err := readLine("back\n"); err != nil {
		t.Fatalf("echo after heal: %v", err)
	}
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

package faultproxy

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"
)

// echoServer answers every received chunk with the same bytes.
func echoServer(t *testing.T) (addr string, cleanup func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				_, _ = io.Copy(c, c)
			}(c)
		}
	}()
	return l.Addr().String(), func() { _ = l.Close() }
}

func dialProxy(t *testing.T, p *Proxy) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPassthrough(t *testing.T) {
	backend, cleanup := echoServer(t)
	defer cleanup()
	p, err := New(backend)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	c := dialProxy(t, p)
	defer c.Close()
	msg := []byte("hello through the proxy")
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echoed %q, want %q", got, msg)
	}
}

func TestCorruptAt(t *testing.T) {
	backend, cleanup := echoServer(t)
	defer cleanup()
	p, err := New(backend)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	plan := Passthrough()
	plan.CorruptAt = 2
	p.SetPlan(plan)

	c := dialProxy(t, p)
	defer c.Close()
	if _, err := c.Write([]byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4)
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	want := []byte{1, 2, 3 ^ 0xFF, 4}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestSeverAfter(t *testing.T) {
	backend, cleanup := echoServer(t)
	defer cleanup()
	p, err := New(backend)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	plan := Passthrough()
	plan.SeverAfter = 3
	p.SetPlan(plan)

	c := dialProxy(t, p)
	defer c.Close()
	if _, err := c.Write([]byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(c) // reads until the proxy severs
	if string(got) != "abc" {
		t.Fatalf("received %q before sever, want %q", got, "abc")
	}
}

func TestStallAfterAndCutAll(t *testing.T) {
	backend, cleanup := echoServer(t)
	defer cleanup()
	p, err := New(backend)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	plan := Passthrough()
	plan.StallAfter = 2
	p.SetPlan(plan)

	c := dialProxy(t, p)
	defer c.Close()
	if _, err := c.Write([]byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 2)
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "ab" {
		t.Fatalf("prefix %q, want %q", got, "ab")
	}
	// The stream is stalled: a short read deadline must expire.
	_ = c.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	one := make([]byte, 1)
	if _, err := c.Read(one); err == nil {
		t.Fatal("read past the stall point must not succeed")
	} else if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
		t.Fatalf("want timeout while stalled, got %v", err)
	}
	// CutAll severs the stalled link for real.
	_ = c.SetReadDeadline(time.Time{})
	p.CutAll()
	if _, err := c.Read(one); err == nil {
		t.Fatal("read after CutAll must fail")
	}
}

func TestOnceRevertsToPassthrough(t *testing.T) {
	backend, cleanup := echoServer(t)
	defer cleanup()
	p, err := New(backend)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	plan := Passthrough()
	plan.Refuse = true
	plan.Once = true
	p.SetPlan(plan)

	// First connection: refused (closed immediately — a read sees EOF).
	c1 := dialProxy(t, p)
	defer c1.Close()
	one := make([]byte, 1)
	_ = c1.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c1.Read(one); err == nil {
		t.Fatal("refused connection must be closed")
	}

	// Second connection: clean passthrough again.
	c2 := dialProxy(t, p)
	defer c2.Close()
	if _, err := c2.Write([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 2)
	if _, err := io.ReadFull(c2, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "ok" {
		t.Fatalf("echo after Once revert = %q", got)
	}
}

// TestUntilFiredHoldsUntilTheFaultLands: a connection that closes
// before reaching the sever offset does not use the plan up; the next
// one is severed, and only after that does the proxy pass through.
func TestUntilFiredHoldsUntilTheFaultLands(t *testing.T) {
	backend, cleanup := echoServer(t)
	defer cleanup()
	p, err := New(backend)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	plan := Passthrough()
	plan.SeverAfter = 3
	plan.UntilFired = true
	p.SetPlan(plan)

	// Two bytes, then the client gives up: the fault never fires.
	c1 := dialProxy(t, p)
	if _, err := c1.Write([]byte("ab")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 2)
	if _, err := io.ReadFull(c1, got); err != nil {
		t.Fatal(err)
	}
	c1.Close()

	// The next connection is still severed at byte 3.
	c2 := dialProxy(t, p)
	defer c2.Close()
	if _, err := c2.Write([]byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	if got, _ := io.ReadAll(c2); string(got) != "abc" {
		t.Fatalf("second connection received %q, want the sever at %q", got, "abc")
	}

	// The fault fired: new connections pass through.
	c3 := dialProxy(t, p)
	defer c3.Close()
	if _, err := c3.Write([]byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	got = make([]byte, 6)
	if _, err := io.ReadFull(c3, got); err != nil || string(got) != "abcdef" {
		t.Fatalf("after the fault fired: %q, %v", got, err)
	}
}

// Package faultproxy is a deterministic in-process TCP chaos proxy for
// exercising the cluster driver's fault tolerance. It forwards byte
// streams between a client (the driver) and a backend (an executor)
// and can, on command, delay, stall, sever, or corrupt them at exact
// byte offsets — no randomness, so every chaos test is replayable.
//
// Faults are scripted per connection via a Plan captured at accept
// time; SetPlan changes the script for subsequent connections, and
// CutAll severs everything currently open (a process kill, as seen
// from the network).
package faultproxy

import (
	"net"
	"sync"
	"time"
)

// Plan scripts the faults applied to one proxied connection. The byte
// offsets address the response stream (backend → client), which is
// where result frames travel; the request stream always flows. The
// zero Plan is NOT a passthrough — use Passthrough() as the base and
// override fields.
type Plan struct {
	// Refuse accepts and immediately closes the client connection
	// (connection refused, as seen by a dialer that got through).
	Refuse bool
	// Latency is added before forwarding each response chunk.
	Latency time.Duration
	// StallAfter stops forwarding response bytes after this many have
	// passed, keeping both connections open — a hung executor. <0
	// disables.
	StallAfter int64
	// SeverAfter closes both sides after this many response bytes — a
	// mid-stream crash. <0 disables.
	SeverAfter int64
	// CorruptAt XORs the response byte at this offset with 0xFF — a
	// corrupted frame. <0 disables.
	CorruptAt int64
	// Once reverts the proxy to Passthrough after this plan has been
	// applied to one connection.
	Once bool
	// UntilFired keeps the plan in force for every new connection until
	// one of its faults (stall, sever, corrupt) has actually fired on
	// some connection, then reverts the proxy to Passthrough. Unlike
	// Once, a connection that closes before reaching the fault's offset
	// (a handshake the client abandoned and redialed) does not use the
	// plan up, so the fault lands exactly where scripted.
	UntilFired bool
}

// Passthrough is the no-fault plan.
func Passthrough() Plan {
	return Plan{StallAfter: -1, SeverAfter: -1, CorruptAt: -1}
}

// Proxy is one listening chaos proxy in front of a single backend.
type Proxy struct {
	backend string
	ln      net.Listener

	mu    sync.Mutex
	plan  Plan
	links map[*link]struct{}
	wg    sync.WaitGroup
}

// New starts a proxy on a loopback port forwarding to backend
// ("host:port"). It begins in passthrough mode.
func New(backend string) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{backend: backend, ln: ln, plan: Passthrough(), links: make(map[*link]struct{})}
	p.wg.Add(1)
	go p.accept()
	return p, nil
}

// Addr is the address clients should dial instead of the backend.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// SetPlan scripts the faults for connections accepted from now on.
func (p *Proxy) SetPlan(plan Plan) {
	p.mu.Lock()
	p.plan = plan
	p.mu.Unlock()
}

// Reset returns the proxy to passthrough mode.
func (p *Proxy) Reset() { p.SetPlan(Passthrough()) }

// CutAll severs every currently open proxied connection — the network
// view of killing the backend process.
func (p *Proxy) CutAll() {
	p.mu.Lock()
	ls := make([]*link, 0, len(p.links))
	for l := range p.links {
		ls = append(ls, l)
	}
	p.mu.Unlock()
	for _, l := range ls {
		l.close()
	}
}

// Close shuts the proxy down and severs all connections.
func (p *Proxy) Close() {
	_ = p.ln.Close()
	p.CutAll()
	p.wg.Wait()
}

// takePlan returns the plan for a newly accepted connection, reverting
// a Once plan to passthrough.
func (p *Proxy) takePlan() Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	plan := p.plan
	if plan.Once {
		p.plan = Passthrough()
	}
	return plan
}

func (p *Proxy) accept() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		plan := p.takePlan()
		if plan.Refuse {
			_ = client.Close()
			continue
		}
		backend, err := net.Dial("tcp", p.backend)
		if err != nil {
			_ = client.Close()
			continue
		}
		l := &link{client: client, backend: backend, done: make(chan struct{})}
		if plan.UntilFired {
			l.fired = p.Reset
		}
		p.mu.Lock()
		p.links[l] = struct{}{}
		p.mu.Unlock()
		p.wg.Add(2)
		go func() {
			defer p.wg.Done()
			l.pump(backend, client, plan, false) // requests flow clean
		}()
		go func() {
			defer p.wg.Done()
			defer p.unlink(l)
			l.pump(client, backend, plan, true) // responses get the faults
		}()
	}
}

func (p *Proxy) unlink(l *link) {
	p.mu.Lock()
	delete(p.links, l)
	p.mu.Unlock()
	l.close()
}

// link is one proxied connection pair.
type link struct {
	client  net.Conn
	backend net.Conn

	once sync.Once
	done chan struct{}
	// fired, when non-nil, runs when one of the plan's faults fires.
	fired func()
}

func (l *link) fire() {
	if l.fired != nil {
		l.fired()
	}
}

func (l *link) close() {
	l.once.Do(func() {
		close(l.done)
		_ = l.client.Close()
		_ = l.backend.Close()
	})
}

// pump copies src → dst, applying the response-direction faults of
// plan when response is true. Offsets are byte positions in the copied
// stream.
func (l *link) pump(dst, src net.Conn, plan Plan, response bool) {
	defer l.close()
	buf := make([]byte, 16*1024)
	var off int64
	for {
		n, err := src.Read(buf)
		if n > 0 {
			b := buf[:n]
			if response {
				if plan.CorruptAt >= 0 && plan.CorruptAt >= off && plan.CorruptAt < off+int64(n) {
					b[plan.CorruptAt-off] ^= 0xFF
					l.fire()
				}
				if plan.StallAfter >= 0 && off+int64(n) > plan.StallAfter {
					if keep := plan.StallAfter - off; keep > 0 {
						_, _ = dst.Write(b[:keep])
					}
					l.fire()
					// Hang forever (until the link is severed): the
					// backend produced bytes the client never sees.
					<-l.done
					return
				}
				if plan.SeverAfter >= 0 && off+int64(n) > plan.SeverAfter {
					if keep := plan.SeverAfter - off; keep > 0 {
						_, _ = dst.Write(b[:keep])
					}
					l.fire()
					return // defer severs both sides
				}
				if plan.Latency > 0 {
					t := time.NewTimer(plan.Latency)
					select {
					case <-l.done:
						t.Stop()
						return
					case <-t.C:
					}
				}
			}
			if _, err := dst.Write(b); err != nil {
				return
			}
			off += int64(n)
		}
		if err != nil {
			return
		}
	}
}

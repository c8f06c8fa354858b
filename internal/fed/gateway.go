package fed

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"bioopera/internal/obs"
	"bioopera/internal/transport"
)

// GatewayConfig configures a federation gateway: the thin routing tier
// clients talk to instead of tracking partition ownership themselves. A
// routed call retries by one rule until its own deadline (Gateway.route).
type GatewayConfig struct {
	// ListenAddr accepts client connections speaking the same frames as
	// the members ("" = library-only gateway, no listener).
	ListenAddr string
	// Members seeds the routing table with member addresses; the rest of
	// the membership is learned from their gossip views.
	Members []string
	// Metrics records routed-RPC outcomes.
	Metrics *obs.Registry
}

// A routed call's wait before it asks a member again doubles from
// minBackoff to maxBackoff.
const (
	minBackoff = 10 * time.Millisecond
	maxBackoff = 250 * time.Millisecond
)

// Gateway routes client RPCs to the member that owns each instance. It
// keeps a routing table (member addresses, liveness, partition owners)
// refreshed from the members themselves, follows redirects when a route
// went stale, and waits out failover when an owner dies mid-call.
type Gateway struct {
	rpcMethods // Start, Status, Wait, ... routed through route

	cfg  GatewayConfig
	met  *fedMetrics
	ep   *transport.Endpoint // nil for a library-only gateway
	done chan struct{}       // closed by Close: ends every retry wait

	mu         sync.Mutex
	clients    map[string]*Client // member address → connection
	addrs      map[string]string  // member name → address
	live       map[string]bool    // member name → believed up
	owners     map[int]string     // partition → owning member
	partitions int
	rr         int // round-robin cursor for start placement
	closed     bool
}

// NewGateway builds a gateway over the given seed members and, when
// ListenAddr is set, starts serving client connections. The first view
// refresh is best-effort — routing self-heals via refresh-on-miss.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("fed: GatewayConfig.Members is required")
	}
	g := &Gateway{
		cfg:        cfg,
		met:        newFedMetrics(cfg.Metrics),
		done:       make(chan struct{}),
		clients:    make(map[string]*Client),
		addrs:      make(map[string]string),
		live:       make(map[string]bool),
		owners:     make(map[int]string),
		partitions: DefaultPartitions,
	}
	g.rpcMethods = rpcMethods{roundTrip: g.route}
	g.refreshView()
	if cfg.ListenAddr != "" {
		ep, err := transport.Listen(cfg.ListenAddr)
		if err != nil {
			g.Close()
			return nil, err
		}
		g.ep = ep
		ep.Serve(func(c *transport.Conn, kind byte, body []byte) (transport.Handler, error) {
			return acceptRequests(c, g.answer, kind, body)
		}, nil)
	}
	return g, nil
}

// Addr reports the gateway's bound listen address ("" when library-only).
func (g *Gateway) Addr() string {
	if g.ep == nil {
		return ""
	}
	return g.ep.Addr()
}

// Close drops every member connection — failing the calls in flight on
// them — then closes the listener and every client connection, which waits
// for the requests still being answered.
func (g *Gateway) Close() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	close(g.done)
	clients := make([]*Client, 0, len(g.clients))
	for _, c := range g.clients {
		clients = append(clients, c)
	}
	g.clients = make(map[string]*Client)
	g.mu.Unlock()
	for _, c := range clients {
		//bioopera:allow droppederr hanging up member connections on teardown is best-effort
		c.Close()
	}
	if g.ep != nil {
		//bioopera:allow droppederr gateway teardown is best-effort; nothing outlives it to report to
		g.ep.Close()
	}
}

// clientFor returns (dialing if needed) the connection to one member
// address.
func (g *Gateway) clientFor(addr string) (*Client, error) {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil, ErrClientClosed
	}
	if c := g.clients[addr]; c != nil {
		g.mu.Unlock()
		return c, nil
	}
	g.mu.Unlock()
	c, err := DialClient(addr, 0)
	if err != nil {
		return nil, err
	}
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		//bioopera:allow droppederr dropping the just-dialed conn after losing to Close is best-effort
		c.Close()
		return nil, ErrClientClosed
	}
	if prev := g.clients[addr]; prev != nil {
		g.mu.Unlock()
		//bioopera:allow droppederr dropping the just-dialed duplicate conn is best-effort
		c.Close()
		return prev, nil
	}
	g.clients[addr] = c
	g.mu.Unlock()
	return c, nil
}

// dropClient forgets a member connection after a transport failure.
func (g *Gateway) dropClient(addr string) {
	g.mu.Lock()
	c := g.clients[addr]
	delete(g.clients, addr)
	g.mu.Unlock()
	if c != nil {
		//bioopera:allow droppederr the connection already failed; closing it is best-effort
		c.Close()
	}
}

// refreshView pulls a membership snapshot from the first member that
// answers and rebuilds the routing table from it.
func (g *Gateway) refreshView() bool {
	for _, addr := range g.candidateAddrs() {
		c, err := g.clientFor(addr)
		if err != nil {
			continue
		}
		view, err := c.Members()
		if err != nil {
			if errors.Is(err, ErrClientClosed) {
				g.dropClient(addr)
			}
			continue
		}
		g.installView(view)
		return true
	}
	return false
}

// candidateAddrs lists every address worth asking for a view: known
// members first (sorted for determinism), then the configured seeds.
func (g *Gateway) candidateAddrs() []string {
	g.mu.Lock()
	seen := make(map[string]bool, len(g.addrs)+len(g.cfg.Members))
	var out []string
	names := make([]string, 0, len(g.addrs))
	for name := range g.addrs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if addr := g.addrs[name]; addr != "" && !seen[addr] {
			seen[addr] = true
			out = append(out, addr)
		}
	}
	g.mu.Unlock()
	for _, addr := range g.cfg.Members {
		if !seen[addr] {
			seen[addr] = true
			out = append(out, addr)
		}
	}
	return out
}

func (g *Gateway) installView(view MembersView) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if view.Partitions > 0 {
		g.partitions = view.Partitions
	}
	g.live = make(map[string]bool, len(view.Members))
	for _, m := range view.Members {
		if m.Addr != "" {
			g.addrs[m.Name] = m.Addr
		}
		g.live[m.Name] = m.Up
		if m.Up {
			for _, p := range m.Partitions {
				g.owners[p] = m.Name
			}
		}
	}
}

// targetFor picks the member address for one call: the instance's minting
// member while it is alive (shared-nothing safe), else the owner of its
// partition; starts round-robin over live members.
func (g *Gateway) targetFor(method, instance string) string {
	g.mu.Lock()
	defer g.mu.Unlock()
	if method == MethodStart || method == MethodMembers {
		names := make([]string, 0, len(g.live))
		for name, up := range g.live {
			if up && g.addrs[name] != "" {
				names = append(names, name)
			}
		}
		if len(names) == 0 {
			return ""
		}
		sort.Strings(names)
		name := names[g.rr%len(names)]
		g.rr++
		return g.addrs[name]
	}
	if minter := MemberOf(instance); minter != "" && g.live[minter] && g.addrs[minter] != "" {
		return g.addrs[minter]
	}
	if owner := g.owners[PartitionOf(instance, g.partitions)]; owner != "" && g.live[owner] {
		return g.addrs[owner]
	}
	return ""
}

// noteRedirect folds a member's redirect into the routing table.
func (g *Gateway) noteRedirect(instance, member, addr string) string {
	g.mu.Lock()
	defer g.mu.Unlock()
	if member == "" {
		return ""
	}
	if addr != "" {
		g.addrs[member] = addr
	}
	g.live[member] = true
	g.owners[PartitionOf(instance, g.partitions)] = member
	return g.addrs[member]
}

// markDown records a transport failure against whoever owns the address.
func (g *Gateway) markDown(addr string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for name, a := range g.addrs {
		if a == addr {
			g.live[name] = false
		}
	}
}

// route sends one request to the member that answers it, by one rule until
// the call's deadline (its timeout, or else DefaultCallTimeout): an answer or
// an application error is returned; a redirect names the next target; an
// unreachable member is marked down in a refreshed view; not ready
// (ErrNoPartition) makes targetFor choose again. A member the call already
// asked is asked again only after a backoff, doubling from minBackoff to
// maxBackoff, and a call whose next wait would pass its deadline returns the
// last error.
func (g *Gateway) route(req Request, timeout time.Duration) (Response, error) {
	if timeout <= 0 {
		timeout = DefaultCallTimeout
	}
	start := clk.Now()
	deadline, waitUntil := start.Add(timeout), start.Add(time.Duration(req.TimeoutMs)*time.Millisecond)
	method, instance := req.Method, req.Instance
	asked := make(map[string]bool)
	backoff := minBackoff
	var lastErr error
	target := g.targetFor(method, instance)
	for {
		if target == "" {
			g.refreshView()
			if target = g.targetFor(method, instance); target == "" {
				lastErr = fmt.Errorf("fed: no live member for %s %q", method, instance)
			}
		}
		var wait time.Duration
		if target == "" || asked[target] {
			wait, backoff = backoff, min(2*backoff, maxBackoff)
		}
		if clk.Now().Add(wait) >= deadline {
			return Response{}, fmt.Errorf("fed: gateway gave up after %v: %w", timeout, lastErr)
		}
		if wait > 0 && !g.pause(wait) {
			return Response{}, ErrClientClosed
		}
		if target == "" {
			continue
		}
		asked[target] = true
		if method == MethodWait && req.TimeoutMs > 0 {
			// A retried wait asks the member for what is left of its own.
			req.TimeoutMs = max(waitUntil.Sub(clk.Now()).Milliseconds(), 1)
		}
		c, err := g.clientFor(target)
		down := err != nil
		var resp Response
		if !down {
			resp, err = c.call(req, deadline.Sub(clk.Now()))
			down = errors.Is(err, ErrClientClosed)
		}
		lastErr = err
		var rd *RedirectError
		switch {
		case err == nil:
			g.met.rpcOK.Inc()
			return resp, nil
		case down:
			g.met.rpcOwnerDown.Inc()
			g.dropClient(target)
			g.refreshView()
			g.markDown(target)
			target = g.targetFor(method, instance)
		case errors.As(err, &rd):
			g.met.rpcRedirect.Inc()
			target = g.noteRedirect(instance, rd.Member, rd.Addr)
		case errors.Is(err, ErrNoPartition):
			g.met.rpcRedirect.Inc()
			target = g.targetFor(method, instance)
		default:
			g.met.rpcError.Inc()
			return resp, err
		}
	}
}

// pause waits d on the package clock; false when the gateway closed first.
func (g *Gateway) pause(d time.Duration) bool {
	woke := make(chan struct{})
	t := clk.AtFunc(clk.Now().Add(d), func() { close(woke) })
	defer t.Stop()
	select {
	case <-woke:
		return true
	case <-g.done:
		return false
	}
}

// answer forwards one client request through the routing core, preserving
// its ID; a failure keeps the code of the error it wraps. A wait gets the
// deadline rpcMethods.Wait gives it: its own timeout plus
// DefaultCallTimeout.
func (g *Gateway) answer(req Request) Response {
	var timeout time.Duration // DefaultCallTimeout
	if req.Method == MethodWait {
		timeout = time.Duration(req.TimeoutMs)*time.Millisecond + DefaultCallTimeout
	}
	resp, err := g.route(req, timeout)
	if err != nil {
		resp.fail(err)
	}
	resp.ID = req.ID
	return resp
}

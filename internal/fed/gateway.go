// The gateway runs in real time: retry backoff and route refresh pace
// against live servers, never the deterministic trace.
//bioopera:allow walltime file-wide: gateway routing, retry and backoff are wall-clock by design

package fed

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"bioopera/internal/core"
	"bioopera/internal/obs"
	"bioopera/internal/transport"
)

// GatewayConfig configures a federation gateway: the thin routing tier
// clients talk to instead of tracking partition ownership themselves.
type GatewayConfig struct {
	// ListenAddr accepts client connections speaking the same frames as
	// the members ("" = library-only gateway, no listener).
	ListenAddr string
	// Members seeds the routing table with member addresses; the rest of
	// the membership is learned from their gossip views.
	Members []string
	// Metrics records routed-RPC outcomes.
	Metrics *obs.Registry
	// CallTimeout bounds each routed attempt (default DefaultCallTimeout).
	CallTimeout time.Duration
	// Retries caps re-routing attempts per call (default 10); redirects
	// retry immediately, dead-owner retries back off by RetryBackoff
	// (default 250ms) so failover has time to land.
	Retries      int
	RetryBackoff time.Duration
}

// Gateway routes client RPCs to the member that owns each instance. It
// keeps a routing table (member addresses, liveness, partition owners)
// refreshed from the members themselves, follows redirects when a route
// went stale, and retries through failover when an owner dies mid-call.
type Gateway struct {
	rpcMethods // Start, Status, Wait, ... routed through callRawTimeout

	cfg GatewayConfig
	met *fedMetrics
	ep  *transport.Endpoint // nil for a library-only gateway

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
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = DefaultCallTimeout
	}
	if cfg.Retries <= 0 {
		cfg.Retries = 10
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 250 * time.Millisecond
	}
	g := &Gateway{
		cfg:        cfg,
		met:        newFedMetrics(cfg.Metrics),
		clients:    make(map[string]*Client),
		addrs:      make(map[string]string),
		live:       make(map[string]bool),
		owners:     make(map[int]string),
		partitions: DefaultPartitions,
	}
	g.rpcMethods = rpcMethods{raw: g.callRawTimeout}
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
	c, err := DialClient(addr, g.cfg.CallTimeout)
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

// CallRaw routes one request to the owning member, following redirects
// (stale route: retry immediately at the named owner) and riding through
// owner death (refresh the view after a backoff so failover can land).
// Application errors from the owner are returned without retry.
func (g *Gateway) CallRaw(method, instance string, params json.RawMessage) (Frame, error) {
	return g.callRawTimeout(method, instance, params, g.cfg.CallTimeout)
}

func (g *Gateway) callRawTimeout(method, instance string, params json.RawMessage, timeout time.Duration) (Frame, error) {
	if timeout <= 0 {
		timeout = g.cfg.CallTimeout
	}
	var lastErr error
	target := g.targetFor(method, instance)
	for attempt := 0; attempt <= g.cfg.Retries; attempt++ {
		if target == "" {
			if attempt > 0 {
				time.Sleep(g.cfg.RetryBackoff)
			}
			g.refreshView()
			target = g.targetFor(method, instance)
			if target == "" {
				lastErr = fmt.Errorf("fed: no live member for %s %q", method, instance)
				continue
			}
		}
		c, err := g.clientFor(target)
		if err != nil {
			g.met.rpcOwnerDown.Inc()
			g.markDown(target)
			lastErr = err
			target = ""
			continue
		}
		resp, err := c.CallRaw(method, instance, params, timeout)
		if err == nil {
			g.met.rpcOK.Inc()
			return resp, nil
		}
		var rd *RedirectError
		switch {
		case errors.As(err, &rd):
			g.met.rpcRedirect.Inc()
			lastErr = err
			target = g.noteRedirect(instance, rd.Member, rd.Addr)
		case errors.Is(err, ErrClientClosed):
			g.met.rpcOwnerDown.Inc()
			g.dropClient(target)
			g.markDown(target)
			lastErr = err
			target = ""
		case instance != "" && strings.Contains(err.Error(), core.ErrUnknownInstance.Error()):
			// The owner may have just claimed the partition and not yet
			// finished adopting its instances; give recovery a beat. A
			// genuinely unknown ID surfaces once retries run out.
			g.met.rpcOwnerDown.Inc()
			lastErr = err
			time.Sleep(g.cfg.RetryBackoff)
			g.refreshView()
			target = g.targetFor(method, instance)
		case method == MethodStart && strings.Contains(err.Error(), ErrNoPartition.Error()):
			// The member has no partition yet (booting, or mid-handoff):
			// round-robin moves on, so just try the next live member.
			g.met.rpcRedirect.Inc()
			lastErr = err
			time.Sleep(g.cfg.RetryBackoff)
			target = g.targetFor(method, instance)
		default:
			g.met.rpcError.Inc()
			return resp, err
		}
	}
	return Frame{}, fmt.Errorf("fed: gateway gave up after %d attempts: %w", g.cfg.Retries+1, lastErr)
}

// answer forwards one client request through the routing core, preserving
// its ID.
func (g *Gateway) answer(r Frame) Frame {
	resp, err := g.CallRaw(r.Method, r.Instance, r.Params)
	resp.ID = r.ID
	if err != nil && !resp.OK && resp.Error == "" {
		resp.Error = err.Error()
	}
	return resp
}

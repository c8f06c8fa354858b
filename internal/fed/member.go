// Federation membership runs in real time: heartbeat cadence, failure
// detection, and failover pacing are wall-clock by design — the
// deterministic trace never passes through this layer.
//bioopera:allow walltime file-wide: membership gossip and failure detection are wall-clock by design

package fed

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"bioopera/internal/codec"
	"bioopera/internal/core"
	"bioopera/internal/obs"
	"bioopera/internal/store"
	"bioopera/internal/transport"
)

// Config configures one federation member: an engine server that owns a
// slice of the instance-ID space and serves routed RPCs for it.
type Config struct {
	// Name identifies this member; it is baked into minted instance IDs
	// and lease records, so it must be unique and stable per store.
	Name string
	// ListenAddr is the federation listener (RPCs + gossip). ":0" picks
	// a free port; Addr reports the bound address.
	ListenAddr string
	// Join lists peer federation addresses to dial at boot; further
	// members are learned from gossip.
	Join []string
	// Store persists instances and the lease table. In-a-box and
	// shared-store federations pass the same store to every member,
	// which is what makes peer failover able to adopt a dead member's
	// instances; shared-nothing members pass their own.
	Store store.Store
	// Library resolves external bindings. Required.
	Library *core.Library
	// Workers sizes the member's local execution pool.
	Workers int
	// Partitions is the federation-wide ownership partition count
	// (default DefaultPartitions); all members must agree.
	Partitions int
	// HeartbeatEvery paces gossip (default 1s); HeartbeatTimeout is the
	// silence after which a peer is declared dead (default 3×Every).
	HeartbeatEvery   time.Duration
	HeartbeatTimeout time.Duration
	// LazyRecovery adopts suspended instances as stubs on failover.
	LazyRecovery bool
	// Metrics/EventRing/OnEvent/OnError wire observability through to
	// the engine and the federation layer.
	Metrics   *obs.Registry
	EventRing *obs.Ring
	OnEvent   func(core.Event)
	OnError   func(error)
}

// peerState is everything known about one other member.
type peerState struct {
	name string
	addr string
	inc  uint64
	up   bool
	// lastBeat is per name, not per connection: liveness is granted by
	// hearing the member on any link (simultaneous dials leave two) and
	// outlives every one of them until the timeout lapses.
	lastBeat   time.Time
	deadAt     time.Time       // when the failure detector declared it down
	partitions []int           // last gossiped owned set
	link       *transport.Conn // the connection gossip is sent on, nil while disconnected
}

// Member is one federated engine server.
type Member struct {
	cfg    Config
	inc    uint64 // boot incarnation (ID minting)
	rt     *core.LocalRuntime
	leases *LeaseTable
	ep     *transport.Endpoint // the listener, and every gossip link either side dialed
	met    *fedMetrics
	booted time.Time

	mu     sync.Mutex
	peers  map[string]*peerState
	dialme map[string]bool // candidate addresses not yet identified
	owned  map[int]bool
	route  map[int]Lease // last observed lease per partition
	seq    uint64        // instance mint sequence
	mintRR int           // round-robin cursor over owned partitions
	closed bool

	stopc chan struct{}
	wg    sync.WaitGroup
}

// NewMember boots a member: it takes a fresh boot incarnation from the
// lease table, starts its engine over a local pool gated by the ownership
// partition, begins gossiping with its Join seeds, and reclaims the
// partitions its leases say it owned before a restart. It does not block
// for the mesh to form; ownership settles via the reconcile loop.
func NewMember(cfg Config) (*Member, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("fed: Config.Name is required")
	}
	if cfg.Store == nil || cfg.Library == nil {
		return nil, fmt.Errorf("fed: Config.Store and Config.Library are required")
	}
	if cfg.Partitions <= 0 {
		cfg.Partitions = DefaultPartitions
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = time.Second
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 3 * cfg.HeartbeatEvery
	}
	m := &Member{
		cfg:    cfg,
		leases: NewLeaseTable(cfg.Store, cfg.Partitions),
		met:    newFedMetrics(cfg.Metrics),
		booted: time.Now(),
		peers:  make(map[string]*peerState),
		dialme: make(map[string]bool),
		owned:  make(map[int]bool),
		route:  make(map[int]Lease),
		stopc:  make(chan struct{}),
	}
	// An unreadable lease table (JSON leases) is refused once, here.
	if _, err := m.leases.All(); err != nil {
		return nil, err
	}
	inc, err := m.leases.NextIncarnation()
	if err != nil {
		return nil, err
	}
	m.inc = inc
	rt, err := core.NewLocalRuntime(core.LocalConfig{
		Workers:      cfg.Workers,
		Store:        cfg.Store,
		Library:      cfg.Library,
		Owns:         m.ownsInstance,
		LazyRecovery: cfg.LazyRecovery,
		Metrics:      cfg.Metrics,
		EventRing:    cfg.EventRing,
		OnEvent:      cfg.OnEvent,
		OnError:      cfg.OnError,
	})
	if err != nil {
		return nil, err
	}
	m.rt = rt
	ep, err := transport.Listen(cfg.ListenAddr)
	if err != nil {
		rt.Close()
		return nil, err
	}
	m.ep = ep
	ep.Serve(m.accept, func(remote string, err error) {
		m.reportErr(fmt.Errorf("fed: %s: refused connection from %s: %w", cfg.Name, remote, err))
	})
	for _, addr := range cfg.Join {
		m.dialme[addr] = true
	}
	registerOwnedGauge(cfg.Metrics, cfg.Name, func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return float64(len(m.owned))
	})
	m.wg.Add(1)
	go m.membershipLoop()
	return m, nil
}

// Addr reports the bound federation listen address.
func (m *Member) Addr() string { return m.ep.Addr() }

// Name reports the member's identity.
func (m *Member) Name() string { return m.cfg.Name }

// Incarnation reports the member's boot incarnation.
func (m *Member) Incarnation() uint64 { return m.inc }

// Runtime exposes the member's engine runtime (monitor wiring, tests).
func (m *Member) Runtime() *core.LocalRuntime { return m.rt }

// Leases exposes the member's lease table (tests, tools).
func (m *Member) Leases() *LeaseTable { return m.leases }

// OwnedPartitions lists the partitions this member currently owns, sorted.
func (m *Member) OwnedPartitions() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return ownedSorted(m.owned)
}

// ownsInstance is the engine's ownership gate: true when the instance's
// partition is currently held by this member.
func (m *Member) ownsInstance(id string) bool {
	p := PartitionOf(id, m.cfg.Partitions)
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.owned[p]
}

// Close stops gossip, the listener and every connection, shuts the engine
// down, and joins the member's goroutines. Ownership is dropped first, so
// the engine's write fence (core.Options.Owns) discards any checkpoint
// still in flight: from the federation's point of view Close is a crash —
// peers adopt this member's partitions from its last committed checkpoint,
// and a worker finishing into the closed runtime can no longer write over
// (or archive away) the records its successor recovers from. The store
// stays open — the caller owns it.
func (m *Member) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.owned = make(map[int]bool)
	m.mu.Unlock()
	close(m.stopc)
	//bioopera:allow droppederr member teardown is best-effort; nothing outlives it to report to
	m.ep.Close()
	m.rt.Close()
	m.wg.Wait()
}

// accept serves an inbound connection: the first frame tells whether the
// peer is a member (hello, duplex gossip) or a client/gateway (request).
func (m *Member) accept(c *transport.Conn, kind byte, body []byte) (transport.Handler, error) {
	if kind != codec.FrameFedHello {
		return acceptRequests(c, m.answer, kind, body)
	}
	g := &gossipConn{m: m, c: c}
	var hello Beat
	if err := decode(&g.dec, kind, body, &hello); err != nil || hello.From.Name == "" {
		return nil, fmt.Errorf("fed: bad hello: %v", err)
	}
	// Identify ourselves back, then treat the conn as a gossip channel:
	// the dialer learns our identity from this reply.
	if err := send(c, codec.FrameFedHello, &Beat{From: m.self()}, false); err != nil {
		return nil, err
	}
	m.notePeer(hello.From, c)
	g.peer = hello.From.Name
	return g, nil
}

// gossipConn is the handler for one gossip connection, accepted or dialed.
type gossipConn struct {
	m      *Member
	c      *transport.Conn
	dec    codec.Decoder // the reader goroutine's
	peer   string        // "" on a dialed connection until the peer's hello names it
	dialed string        // the address dialed, "" when accepted
}

// Frame consumes a peer's beats.
func (g *gossipConn) Frame(kind byte, body []byte) error {
	if kind != codec.FrameFedHello && kind != codec.FrameFedGossip {
		return nil
	}
	var f Beat
	if err := decode(&g.dec, kind, body, &f); err != nil {
		return fmt.Errorf("fed: gossip: %w", err)
	}
	m := g.m
	if g.peer != "" {
		m.notePeer(f.From, nil)
		m.noteMembers(f.Members)
		return nil
	}
	// Dialed: this is the hello back.
	if f.From.Name == "" {
		return errors.New("fed: peer hello without a name")
	}
	g.peer = f.From.Name
	m.mu.Lock()
	delete(m.dialme, g.dialed)
	known := m.peers[g.peer]
	link := g.c
	if known != nil && known.link != nil {
		// Simultaneous dials: keep the established link, use this
		// conn read-only until it drops.
		link = nil
	}
	m.mu.Unlock()
	m.notePeer(f.From, link)
	return nil
}

// Closed clears the peer's link if this connection was it; liveness itself
// is decided by the heartbeat timeout, not the connection (a dropped conn
// redials).
func (g *gossipConn) Closed(error) {
	m := g.m
	m.mu.Lock()
	if p := m.peers[g.peer]; p != nil && p.link == g.c {
		p.link = nil
	}
	m.mu.Unlock()
}

// self assembles this member's gossip identity.
func (m *Member) self() MemberInfo {
	return MemberInfo{
		Name: m.cfg.Name, Addr: m.Addr(), Incarnation: m.inc, Up: true,
		Partitions: m.OwnedPartitions(),
	}
}

// notePeer records a directly heard member (hello or gossip sender): it
// refreshes the heartbeat clock and installs the link when one was just
// established.
func (m *Member) notePeer(from MemberInfo, link *transport.Conn) {
	if from.Name == "" || from.Name == m.cfg.Name {
		return
	}
	wasUp := true
	m.mu.Lock()
	p := m.peers[from.Name]
	if p == nil {
		p = &peerState{name: from.Name}
		m.peers[from.Name] = p
		wasUp = false
	} else {
		wasUp = p.up
	}
	if from.Addr != "" {
		p.addr = from.Addr
		delete(m.dialme, from.Addr)
	}
	p.inc = from.Incarnation
	p.lastBeat = time.Now()
	p.up = true
	p.deadAt = time.Time{}
	if from.Partitions != nil {
		p.partitions = from.Partitions
	}
	if link != nil {
		p.link = link
	}
	m.mu.Unlock()
	if !wasUp {
		m.rt.Engine().EmitInfra(core.Event{Kind: core.EvNodeJoined,
			Node: "member/" + from.Name, Detail: fmt.Sprintf("incarnation=%d", from.Incarnation)})
	}
}

// noteMembers learns dial candidates from a gossiped membership view;
// liveness is only ever granted by hearing a member directly.
func (m *Member) noteMembers(members []MemberInfo) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, fm := range members {
		if fm.Name == "" || fm.Name == m.cfg.Name || fm.Addr == "" {
			continue
		}
		if p := m.peers[fm.Name]; p != nil {
			if p.addr == "" {
				p.addr = fm.Addr
			}
			continue
		}
		m.dialme[fm.Addr] = true
	}
}

// membershipLoop is the member's heartbeat: every HeartbeatEvery it dials
// unconnected peers, sends gossip on every link, advances the failure
// detector, and reconciles partition ownership against the lease table.
func (m *Member) membershipLoop() {
	defer m.wg.Done()
	t := time.NewTicker(m.cfg.HeartbeatEvery)
	defer t.Stop()
	m.dialPending()
	m.reconcile()
	for {
		select {
		case <-m.stopc:
			return
		case <-t.C:
			m.dialPending()
			m.gossip()
			m.detectFailures()
			m.reconcile()
		}
	}
}

// dialPending connects to every known-but-unlinked peer address.
func (m *Member) dialPending() {
	m.mu.Lock()
	var addrs []string
	for addr := range m.dialme {
		addrs = append(addrs, addr)
	}
	for _, p := range m.peers {
		if p.link == nil && p.addr != "" {
			addrs = append(addrs, p.addr)
		}
	}
	m.mu.Unlock()
	sort.Strings(addrs)
	for _, addr := range addrs {
		if addr == m.Addr() {
			m.mu.Lock()
			delete(m.dialme, addr)
			m.mu.Unlock()
			continue
		}
		m.dialPeer(addr)
	}
}

// dialPeer starts one outbound gossip link: hello out; the hello back
// arrives at the gossipConn, within the handshake deadline or not at all.
func (m *Member) dialPeer(addr string) {
	g := &gossipConn{m: m, dialed: addr}
	c, err := m.ep.Dial(addr, m.cfg.HeartbeatEvery, func(c *transport.Conn) transport.Handler {
		g.c = c
		return g
	})
	if err != nil {
		return
	}
	c.ExpectReply()
	_ = send(c, codec.FrameFedHello, &Beat{From: m.self()}, false) // a dead conn ends in Closed
}

// gossip sends one beat to every linked peer. Send never blocks: this
// goroutine also runs the failure detector and reconcile, and a stalled
// peer must not stop the one member that is supposed to take over.
func (m *Member) gossip() {
	e := codec.Get()
	defer codec.Put(e)
	e.Begin(codec.FrameFedGossip)
	(&Beat{From: m.self(), Members: m.memberViews(false)}).Encode(e)
	e.End()
	m.mu.Lock()
	var links []*transport.Conn
	for _, p := range m.peers {
		if p.link != nil {
			links = append(links, p.link)
		}
	}
	m.mu.Unlock()
	for _, l := range links {
		_ = l.Send(codec.FrameFedGossip, e.Buf) // a broken link is re-dialed next tick
	}
}

// memberViews assembles the membership snapshot (self first, peers
// sorted); includeDead keeps peers the failure detector has declared down,
// for gateways and monitor surfaces.
func (m *Member) memberViews(includeDead bool) []MemberInfo {
	out := []MemberInfo{m.self()}
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.peers))
	for name := range m.peers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p := m.peers[name]
		if !p.up && !includeDead {
			continue
		}
		out = append(out, MemberInfo{
			Name: p.name, Addr: p.addr, Incarnation: p.inc, Up: p.up,
			Partitions: append([]int(nil), p.partitions...),
		})
	}
	return out
}

func ownedSorted(owned map[int]bool) []int {
	out := make([]int, 0, len(owned))
	for p := range owned {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// detectFailures declares peers dead after HeartbeatTimeout of silence.
func (m *Member) detectFailures() {
	now := time.Now()
	cutoff := now.Add(-m.cfg.HeartbeatTimeout)
	m.mu.Lock()
	type beat struct {
		name string
		last time.Time
		up   bool
	}
	checks := make([]beat, 0, len(m.peers))
	for name, p := range m.peers {
		checks = append(checks, beat{name: name, last: p.lastBeat, up: p.up})
	}
	sort.Slice(checks, func(i, j int) bool { return checks[i].name < checks[j].name })
	var downed []string
	for _, c := range checks {
		if c.up && c.last.Before(cutoff) {
			p := m.peers[c.name]
			p.up = false
			p.deadAt = now
			downed = append(downed, c.name)
		}
	}
	m.mu.Unlock()
	for _, name := range downed {
		m.rt.Engine().EmitInfra(core.Event{Kind: core.EvNodeDown,
			Node: "member/" + name, Detail: "heartbeat lapsed"})
	}
}

// liveMembers lists the members the failure detector currently believes
// alive (always including self), sorted — the rendezvous candidate set.
func (m *Member) liveMembers() []string {
	live := []string{m.cfg.Name}
	m.mu.Lock()
	for name, p := range m.peers {
		if p.up {
			live = append(live, name)
		}
	}
	m.mu.Unlock()
	sort.Strings(live)
	return live
}

// settled reports whether this member may make first claims: either it has
// no seeds, every seed resolved to a live peer, or the join grace expired.
// The grace keeps a freshly booted member from claiming partitions its
// not-yet-heard peers already own.
func (m *Member) settled() bool {
	if len(m.cfg.Join) == 0 {
		return true
	}
	if time.Since(m.booted) > 2*m.cfg.HeartbeatTimeout {
		return true
	}
	m.mu.Lock()
	pending := len(m.dialme)
	m.mu.Unlock()
	return pending == 0
}

// reconcile is the ownership engine, run every heartbeat: it reads the
// lease table, re-claims partitions this member held before a restart,
// claims unowned partitions and dead members' partitions for which it is
// the rendezvous successor, drops partitions whose lease another member
// won, and hands empty partitions whose rendezvous successor is another
// live member back to the pool so late joiners pick up a fair share.
// Claims are CAS'd; a lost race just updates the route.
func (m *Member) reconcile() {
	leases, err := m.leases.All()
	if err != nil {
		m.reportErr(fmt.Errorf("fed: %s: read leases: %w", m.cfg.Name, err))
		return
	}
	live := m.liveMembers()
	settled := m.settled()
	now := time.Now()

	type claimTask struct {
		prev      Lease
		prevOwner string
		deadAt    time.Time
	}
	var claims []claimTask
	var handoffs []Lease
	var lost []int

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	for p, l := range leases {
		m.route[p] = l
		switch {
		case l.Owner == m.cfg.Name:
			if !m.owned[p] {
				// Restart path: the store says this partition was ours;
				// re-claim under a fresh incarnation and re-adopt.
				claims = append(claims, claimTask{prev: l, prevOwner: l.Owner})
			} else if s := SuccessorOf(p, live); s != "" && s != m.cfg.Name {
				// Rebalance: a live peer is this partition's rendezvous
				// successor (it joined after we claimed). Candidate for
				// handoff once the partition carries no instances.
				handoffs = append(handoffs, l)
			}
		case m.owned[p]:
			// Fenced: someone else's claim won — stop serving it.
			delete(m.owned, p)
			lost = append(lost, p)
		case l.Owner == "":
			if settled && SuccessorOf(p, live) == m.cfg.Name {
				claims = append(claims, claimTask{prev: l})
			}
		default:
			peer := m.peers[l.Owner]
			ownerDead := peer != nil && !peer.up
			ownerUnknown := peer == nil && settled &&
				now.Sub(m.booted) > 2*m.cfg.HeartbeatTimeout
			if (ownerDead || ownerUnknown) && SuccessorOf(p, live) == m.cfg.Name {
				ct := claimTask{prev: l, prevOwner: l.Owner}
				if peer != nil {
					ct.deadAt = peer.deadAt
				}
				claims = append(claims, ct)
			}
		}
	}
	m.mu.Unlock()

	for _, p := range lost {
		m.rt.Engine().EmitInfra(core.Event{Kind: core.EvNodeDown,
			Node:   "member/" + m.cfg.Name,
			Detail: fmt.Sprintf("partition %d lease lost", p)})
	}
	m.handOff(handoffs)
	if len(claims) == 0 {
		return
	}

	claimed := make(map[int]bool)
	transfers := 0
	var failoverFrom map[string]time.Time
	for _, ct := range claims {
		inc, err := m.leases.NextIncarnation()
		if err != nil {
			m.reportErr(fmt.Errorf("fed: %s: claim epoch: %w", m.cfg.Name, err))
			return
		}
		next := Lease{Partition: ct.prev.Partition, Owner: m.cfg.Name, Incarnation: inc}
		if err := m.leases.Claim(ct.prev, next); err != nil {
			var conflict *ConflictError
			if errors.As(err, &conflict) {
				// Lost the race: remember the winner for routing.
				m.mu.Lock()
				m.route[ct.prev.Partition] = conflict.Current
				m.mu.Unlock()
				continue
			}
			m.reportErr(fmt.Errorf("fed: %s: claim partition %d: %w", m.cfg.Name, ct.prev.Partition, err))
			continue
		}
		claimed[ct.prev.Partition] = true
		m.mu.Lock()
		m.owned[ct.prev.Partition] = true
		m.route[ct.prev.Partition] = next
		m.mu.Unlock()
		if ct.prevOwner != "" && ct.prevOwner != m.cfg.Name {
			transfers++
			if !ct.deadAt.IsZero() {
				if failoverFrom == nil {
					failoverFrom = make(map[string]time.Time)
				}
				failoverFrom[ct.prevOwner] = ct.deadAt
			}
		}
	}
	if len(claimed) == 0 {
		return
	}

	// Adopt the claimed partitions' instances through the partition-scoped
	// recovery entry point; already-registered instances are skipped, so
	// re-running after a partial claim is safe.
	parts := m.cfg.Partitions
	n, err := m.rt.Engine().RecoverOwned(func(id string) bool {
		return claimed[PartitionOf(id, parts)]
	})
	if err != nil {
		m.reportErr(fmt.Errorf("fed: %s: recover claimed partitions: %w", m.cfg.Name, err))
	}
	m.met.transfers.Add(uint64(transfers))
	deadOwners := make([]string, 0, len(failoverFrom))
	for owner := range failoverFrom {
		deadOwners = append(deadOwners, owner)
	}
	sort.Strings(deadOwners)
	for _, owner := range deadOwners {
		m.met.failoverSec.Observe(time.Since(failoverFrom[owner]).Seconds())
	}
	m.rt.Engine().EmitInfra(core.Event{Kind: core.EvServerRecovered,
		Node:   "member/" + m.cfg.Name,
		Detail: fmt.Sprintf("claimed %d partitions, adopted %d instances", len(claimed), n)})
	m.rt.Bump()
}

// handOff releases empty owned partitions whose rendezvous successor is
// another live member: the lease goes back to unclaimed under a fresh
// incarnation and the successor claims it on its next reconcile pass.
// Partitions carrying instances stay put — moving live state is what
// failover is for — so rebalancing only ever transfers idle ownership.
func (m *Member) handOff(handoffs []Lease) {
	for _, l := range handoffs {
		if m.partitionBusy(l.Partition) {
			continue
		}
		inc, err := m.leases.NextIncarnation()
		if err != nil {
			m.reportErr(fmt.Errorf("fed: %s: handoff epoch: %w", m.cfg.Name, err))
			return
		}
		next := Lease{Partition: l.Partition, Incarnation: inc}
		if err := m.leases.Claim(l, next); err != nil {
			var conflict *ConflictError
			if errors.As(err, &conflict) {
				next = conflict.Current
			} else {
				m.reportErr(fmt.Errorf("fed: %s: hand off partition %d: %w", m.cfg.Name, l.Partition, err))
				continue
			}
		}
		m.mu.Lock()
		delete(m.owned, l.Partition)
		m.route[l.Partition] = next
		m.mu.Unlock()
	}
}

// partitionBusy reports whether any instance of the partition is
// registered with this member's engine. Terminal instances count too: the
// records a monitor can still query should move owners only through the
// lease protocol's recovery path, never silently.
func (m *Member) partitionBusy(p int) bool {
	for _, in := range m.rt.Engine().Instances() {
		if PartitionOf(in.ID, m.cfg.Partitions) == p {
			return true
		}
	}
	return false
}

func (m *Member) reportErr(err error) {
	if m.cfg.OnError != nil {
		m.cfg.OnError(err)
	}
}

// ownerOf resolves a partition's current owner for redirects: this member,
// the lease table's answer, or the freshest gossip.
func (m *Member) ownerOf(p int) (name, addr string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.owned[p] {
		return m.cfg.Name, m.Addr()
	}
	if l, ok := m.route[p]; ok && l.Owner != "" && l.Owner != m.cfg.Name {
		if peer := m.peers[l.Owner]; peer != nil {
			return l.Owner, peer.addr
		}
		return l.Owner, ""
	}
	names := make([]string, 0, len(m.peers))
	for name := range m.peers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		peer := m.peers[name]
		for _, pp := range peer.partitions {
			if pp == p {
				return peer.name, peer.addr
			}
		}
	}
	return "", ""
}

// pickPartition chooses the partition for a freshly minted instance,
// rotating over the owned set so load spreads across this member's
// partitions (keeping any single failover from moving everything).
func (m *Member) pickPartition() (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.owned) == 0 {
		return 0, ErrNoPartition
	}
	parts := ownedSorted(m.owned)
	p := parts[m.mintRR%len(parts)]
	m.mintRR++
	return p, nil
}

// mintID builds the next instance ID in an owned partition.
func (m *Member) mintID() (string, error) {
	p, err := m.pickPartition()
	if err != nil {
		return "", err
	}
	m.mu.Lock()
	m.seq++
	seq := m.seq
	m.mu.Unlock()
	return MintID(p, m.cfg.Name, m.inc, seq), nil
}

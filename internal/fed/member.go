// Federation membership runs in real time: heartbeat cadence, failure
// detection, and failover pacing are wall-clock by design — the
// deterministic trace never passes through this layer.
//bioopera:allow walltime file-wide: membership gossip and failure detection are wall-clock by design

package fed

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"bioopera/internal/cluster"
	"bioopera/internal/core"
	"bioopera/internal/obs"
	"bioopera/internal/remote"
	"bioopera/internal/store"
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
	name       string
	addr       string
	inc        uint64
	up         bool
	lastBeat   time.Time
	deadAt     time.Time // when the failure detector declared it down
	partitions []int     // last gossiped owned set
	link       *peerLink // active duplex conn, nil while disconnected
}

// peerLink is one established gossip connection (either side may have
// dialed); writes serialize on wmu.
type peerLink struct {
	conn net.Conn
	wmu  sync.Mutex
	enc  *json.Encoder
}

func (l *peerLink) send(f remote.FedFrame) error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	return l.enc.Encode(f)
}

// Member is one federated engine server.
type Member struct {
	cfg    Config
	inc    uint64 // boot incarnation (ID minting)
	rt     *core.LocalRuntime
	leases *LeaseTable
	ln     net.Listener
	dir    *cluster.Directory // membership view: one node per member
	met    *fedMetrics
	booted time.Time

	mu     sync.Mutex
	peers  map[string]*peerState
	dialme map[string]bool // candidate addresses not yet identified
	owned  map[int]bool
	route  map[int]Lease // last observed lease per partition
	seq    uint64        // instance mint sequence
	mintRR int           // round-robin cursor over owned partitions
	conns  map[net.Conn]bool
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
		dir:    cluster.NewDirectory(),
		met:    newFedMetrics(cfg.Metrics),
		booted: time.Now(),
		peers:  make(map[string]*peerState),
		dialme: make(map[string]bool),
		owned:  make(map[int]bool),
		route:  make(map[int]Lease),
		conns:  make(map[net.Conn]bool),
		stopc:  make(chan struct{}),
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
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		rt.Close()
		return nil, err
	}
	m.ln = ln
	m.dir.Join(cluster.NodeView{Name: cfg.Name, Up: true, CPUs: 1, Speed: 1})
	for _, addr := range cfg.Join {
		m.dialme[addr] = true
	}
	registerOwnedGauge(cfg.Metrics, cfg.Name, func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return float64(len(m.owned))
	})
	m.wg.Add(2)
	go m.acceptLoop()
	go m.membershipLoop()
	return m, nil
}

// Addr reports the bound federation listen address.
func (m *Member) Addr() string { return m.ln.Addr().String() }

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
	out := make([]int, 0, len(m.owned))
	for p := range m.owned {
		out = append(out, p)
	}
	m.mu.Unlock()
	sort.Ints(out)
	return out
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
	conns := make([]net.Conn, 0, len(m.conns))
	for c := range m.conns {
		conns = append(conns, c)
	}
	var links []*peerLink
	for _, p := range m.peers {
		if p.link != nil {
			links = append(links, p.link)
			p.link = nil
		}
	}
	m.mu.Unlock()
	close(m.stopc)
	//bioopera:allow droppederr member teardown is best-effort; nothing outlives it to report to
	m.ln.Close()
	for _, c := range conns {
		//bioopera:allow droppederr hanging up tracked connections on teardown is best-effort
		c.Close()
	}
	for _, l := range links {
		//bioopera:allow droppederr hanging up gossip links on teardown is best-effort
		l.conn.Close()
	}
	m.rt.Close()
	m.wg.Wait()
}

// trackConn registers an accepted or dialed connection for Close; it
// reports false when the member is already closing.
func (m *Member) trackConn(c net.Conn) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false
	}
	m.conns[c] = true
	return true
}

func (m *Member) untrackConn(c net.Conn) {
	m.mu.Lock()
	delete(m.conns, c)
	m.mu.Unlock()
}

// acceptLoop serves inbound connections: the first frame tells whether the
// peer is a member (fed-hello, duplex gossip) or a client/gateway
// (fed-request).
func (m *Member) acceptLoop() {
	defer m.wg.Done()
	for {
		conn, err := m.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !m.trackConn(conn) {
			//bioopera:allow droppederr refusing the late connection during teardown is best-effort
			conn.Close()
			return
		}
		m.wg.Add(1)
		go m.handleConn(conn)
	}
}

func (m *Member) handleConn(conn net.Conn) {
	defer m.wg.Done()
	defer m.untrackConn(conn)
	defer conn.Close()
	dec := json.NewDecoder(conn)
	var first remote.FedFrame
	if err := dec.Decode(&first); err != nil {
		return
	}
	switch first.Type {
	case remote.MsgFedHello:
		link := &peerLink{conn: conn, enc: json.NewEncoder(conn)}
		// Identify ourselves back, then treat the conn as a gossip
		// channel: the dialer learns our identity from this reply.
		if err := link.send(remote.FedFrame{Type: remote.MsgFedHello, From: m.self()}); err != nil {
			return
		}
		m.notePeer(first.From, link)
		m.gossipReadLoop(dec, first.From.Name)
	case remote.MsgFedRequest:
		serveRequests(conn, dec, first, m.answer)
	}
}

// gossipReadLoop consumes a peer's beats until the connection drops.
func (m *Member) gossipReadLoop(dec *json.Decoder, peer string) {
	for {
		var f remote.FedFrame
		if err := dec.Decode(&f); err != nil {
			m.peerLinkDown(peer)
			return
		}
		switch f.Type {
		case remote.MsgFedGossip, remote.MsgFedHello:
			m.notePeer(f.From, nil)
			m.noteMembers(f.Members)
		}
	}
}

// peerLinkDown clears a peer's link; liveness itself is decided by the
// heartbeat timeout, not the connection (a dropped conn redials).
func (m *Member) peerLinkDown(name string) {
	m.mu.Lock()
	if p := m.peers[name]; p != nil {
		p.link = nil
	}
	m.mu.Unlock()
}

// self assembles this member's gossip identity.
func (m *Member) self() remote.FedMember {
	return remote.FedMember{
		Name: m.cfg.Name, Addr: m.Addr(), Incarnation: m.inc, Up: true,
		Partitions: m.OwnedPartitions(),
	}
}

// notePeer records a directly heard member (hello or gossip sender): it
// refreshes the heartbeat clock, joins the membership directory, and
// installs the link when one was just established.
func (m *Member) notePeer(from remote.FedMember, link *peerLink) {
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
	m.dir.Join(cluster.NodeView{Name: from.Name, Up: true, CPUs: 1, Speed: 1})
	m.dir.SetExtLoad(from.Name, from.Load)
	if !wasUp {
		m.rt.Engine().EmitInfra(core.Event{Kind: core.EvNodeJoined,
			Node: "member/" + from.Name, Detail: fmt.Sprintf("incarnation=%d", from.Incarnation)})
	}
}

// noteMembers learns dial candidates from a gossiped membership view;
// liveness is only ever granted by hearing a member directly.
func (m *Member) noteMembers(members []remote.FedMember) {
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

// dialPeer establishes one outbound gossip link: hello out, hello back.
func (m *Member) dialPeer(addr string) {
	conn, err := net.DialTimeout("tcp", addr, m.cfg.HeartbeatEvery)
	if err != nil {
		return
	}
	if !m.trackConn(conn) {
		//bioopera:allow droppederr dropping the just-dialed conn after losing to Close is best-effort
		conn.Close()
		return
	}
	link := &peerLink{conn: conn, enc: json.NewEncoder(conn)}
	if err := link.send(remote.FedFrame{Type: remote.MsgFedHello, From: m.self()}); err != nil {
		m.untrackConn(conn)
		//bioopera:allow droppederr the hello already failed; closing the conn is best-effort
		conn.Close()
		return
	}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		defer m.untrackConn(conn)
		defer conn.Close()
		dec := json.NewDecoder(conn)
		var hello remote.FedFrame
		if err := dec.Decode(&hello); err != nil || hello.From.Name == "" {
			return
		}
		m.mu.Lock()
		delete(m.dialme, addr)
		known := m.peers[hello.From.Name]
		duplicate := known != nil && known.link != nil
		m.mu.Unlock()
		if duplicate {
			// Simultaneous dials: keep the established link, use this
			// conn read-only until it drops.
			m.notePeer(hello.From, nil)
		} else {
			m.notePeer(hello.From, link)
		}
		m.gossipReadLoop(dec, hello.From.Name)
	}()
}

// gossip sends one beat to every linked peer.
func (m *Member) gossip() {
	frame := remote.FedFrame{Type: remote.MsgFedGossip, From: m.self(), Members: m.memberViews(false)}
	m.mu.Lock()
	var links []*peerLink
	for _, p := range m.peers {
		if p.link != nil {
			links = append(links, p.link)
		}
	}
	m.mu.Unlock()
	for _, l := range links {
		_ = l.send(frame) // a broken link is re-dialed next tick
	}
}

// memberViews assembles the membership snapshot (self first, peers
// sorted); includeSelfLoad is reserved for monitor surfaces.
func (m *Member) memberViews(includeDead bool) []remote.FedMember {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := []remote.FedMember{{
		Name: m.cfg.Name, Addr: m.Addr(), Incarnation: m.inc, Up: true,
		Partitions: ownedSorted(m.owned),
	}}
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
		out = append(out, remote.FedMember{
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
		m.dir.SetUp(name, false)
		m.rt.Engine().EmitInfra(core.Event{Kind: core.EvNodeDown,
			Node: "member/" + name, Detail: "heartbeat lapsed"})
	}
}

// liveMembers lists the members the failure detector currently believes
// alive (always including self), sorted — the rendezvous candidate set.
func (m *Member) liveMembers() []string {
	live := []string{m.cfg.Name}
	for _, v := range m.dir.Nodes() {
		if v.Up && v.Name != m.cfg.Name {
			live = append(live, v.Name)
		}
	}
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

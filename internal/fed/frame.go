package fed

import (
	"errors"
	"maps"
	"slices"

	"bioopera/internal/codec"
	"bioopera/internal/core"
	"bioopera/internal/obs"
	"bioopera/internal/ocr"
	"bioopera/internal/transport"
)

// Federation frames ride internal/transport on each member's federation
// listener, where the kind of a connection's first frame tells its two
// conversations apart. Member ↔ member: FrameFedHello (the sender, on dial
// and back), then FrameFedGossip (heartbeat + membership view), both a Beat.
// Client or gateway → member: FrameFedRequest, a routed RPC, answered by a
// FrameFedResponse with the result, an error, or a redirect naming the owner
// when the route was stale. The gateway speaks both sides.
//
// Each body is one codec record of the frame's own kind, its fields in the
// order the Encode methods below write them (DESIGN §11 tabulates them). A
// request or response is the union of what the ten methods need: each method
// reads its own fields and the rest travel as zeros. A body that is not a
// record of its frame's kind, or has bytes left over, hangs the link up.
// Kinds 40–43 carried the same messages as JSON; the transport refuses a
// peer that still sends them (transport.ErrRetiredKind).

// MemberInfo is one engine server in the federation's membership view, as
// gossiped between members and served to gateways and monitors — the row
// /api/cluster shows, so the view needs no copy to be rendered. Incarnation
// is the member's boot epoch from the lease table (a claim under an older one
// than the recorded one is stale: split-brain fencing); Up is the sender's
// failure detector's belief, not ground truth; Partitions are those it owned
// when the view was assembled, none travelling as nil.
type MemberInfo = obs.MemberView

// Beat is the body of both member ↔ member frames: the sender and, in a
// gossip beat, its membership view (a hello carries none).
type Beat struct {
	From    MemberInfo
	Members []MemberInfo
}

// Request is one routed RPC. ID correlates the response on a multiplexed
// connection; every method but start and members names its Instance.
type Request struct {
	ID        uint64
	Method    string
	Instance  string
	Start     StartReq             // start
	TimeoutMs int64                // wait; the serving member also caps it
	Graceful  bool                 // suspend
	Reason    string               // abort
	Event     string               // signal
	Payload   map[string]ocr.Value // signal
	Name      string               // setparam
	Value     ocr.Value            // setparam
}

// Response answers one Request. Code says what Error is, so a caller matches
// a failure by sentinel rather than by its text.
type Response struct {
	ID    uint64
	Code  byte
	Error string
	// Redirect names the member the sender believes owns the instance and
	// RedirectAddr its address, when known: the caller re-routes there.
	Redirect     string
	RedirectAddr string

	Started string        // start: the minted instance ID
	State   StateRes      // status, wait
	View    MembersView   // members
	Lineage *core.Lineage // lineage
}

// Response codes.
const (
	codeOK              byte = iota
	codeRedirect             // *RedirectError from Redirect and RedirectAddr
	codeUnknownInstance      // core.ErrUnknownInstance
	codeNoPartition          // ErrNoPartition
	codeFailed               // any other error: its text is all there is
)

// remoteError is a failure a member answered with: its text as the member
// wrote it, matching the sentinel its code names (none for codeFailed).
type remoteError struct {
	msg string
	is  error
}

func (e *remoteError) Error() string { return e.msg }
func (e *remoteError) Unwrap() error { return e.is }

// err is the error a response reports; nil for success.
func (r *Response) err() error {
	switch r.Code {
	case codeOK:
		return nil
	case codeRedirect:
		return &RedirectError{Member: r.Redirect, Addr: r.RedirectAddr}
	case codeUnknownInstance:
		return &remoteError{r.Error, core.ErrUnknownInstance}
	case codeNoPartition:
		return &remoteError{r.Error, ErrNoPartition}
	}
	return &remoteError{msg: r.Error}
}

// fail makes r report err: the inverse of Response.err.
func (r *Response) fail(err error) {
	r.Code, r.Error = codeFailed, err.Error()
	var rd *RedirectError
	switch {
	case errors.As(err, &rd):
		r.Code, r.Redirect, r.RedirectAddr = codeRedirect, rd.Member, rd.Addr
	case errors.Is(err, core.ErrUnknownInstance):
		r.Code = codeUnknownInstance
	case errors.Is(err, ErrNoPartition):
		r.Code = codeNoPartition
	}
}

// message is what the three bodies share: Encode appends the fields to a
// begun record, Decode reads them and checks the record was consumed exactly.
type message interface {
	Encode(*codec.Encoder)
	Decode(*codec.Decoder) error
}

// send queues m as a frame of kind whose body is a record of that kind; wait
// selects back-pressure (transport.Conn.SendWait) for callers holding no lock.
func send(c *transport.Conn, kind byte, m message, wait bool) error {
	e := codec.Get()
	defer codec.Put(e)
	e.Begin(kind)
	m.Encode(e)
	e.End()
	if wait {
		return c.SendWait(kind, e.Buf)
	}
	return c.Send(kind, e.Buf)
}

// decode reads a frame's body — a record of the frame's own kind, consumed
// exactly — into m through d, which lives as long as its connection.
func decode(d *codec.Decoder, kind byte, body []byte, m message) error {
	if err := d.Open(body, kind); err != nil {
		return err
	}
	return m.Decode(d)
}

func (m *Beat) Encode(e *codec.Encoder) {
	encodeMember(e, m.From)
	encodeList(e, m.Members, func(mi MemberInfo) { encodeMember(e, mi) })
}

func (m *Beat) Decode(d *codec.Decoder) error {
	*m = Beat{From: decodeMember(d), Members: decodeList(d, func() MemberInfo { return decodeMember(d) })}
	return d.Finish()
}

func (m *Request) Encode(e *codec.Encoder) {
	e.Uvarint(m.ID)
	e.String(m.Method)
	e.String(m.Instance)
	e.String(m.Start.Template)
	e.ValueMap(m.Start.Inputs)
	e.Int(int64(m.Start.Priority))
	e.Bool(m.Start.Nice)
	e.String(m.Start.Tenant)
	e.Int(m.TimeoutMs)
	e.Bool(m.Graceful)
	e.String(m.Reason)
	e.String(m.Event)
	e.ValueMap(m.Payload)
	e.String(m.Name)
	e.Value(m.Value)
}

func (m *Request) Decode(d *codec.Decoder) error {
	*m = Request{
		ID:       d.Uvarint(),
		Method:   d.String(),
		Instance: d.String(),
		Start: StartReq{Template: d.String(), Inputs: d.ValueMap(), Priority: int(d.Int()), Nice: d.Bool(),
			Tenant: d.String()},
		TimeoutMs: d.Int(),
		Graceful:  d.Bool(),
		Reason:    d.String(),
		Event:     d.String(),
		Payload:   d.ValueMap(),
		Name:      d.String(),
		Value:     d.Value(),
	}
	return d.Finish()
}

func (m *Response) Encode(e *codec.Encoder) {
	e.Uvarint(m.ID)
	e.Uvarint(uint64(m.Code))
	e.String(m.Error)
	e.String(m.Redirect)
	e.String(m.RedirectAddr)
	e.String(m.Started)
	e.String(m.State.Status)
	e.ValueMap(m.State.Outputs)
	e.String(m.State.Failure)
	e.Int(int64(m.View.Partitions))
	encodeList(e, m.View.Members, func(mi MemberInfo) { encodeMember(e, mi) })
	encodeLineage(e, m.Lineage)
}

func (m *Response) Decode(d *codec.Decoder) error {
	*m = Response{
		ID:           d.Uvarint(),
		Code:         byte(d.Uvarint()),
		Error:        d.String(),
		Redirect:     d.String(),
		RedirectAddr: d.String(),
		Started:      d.String(),
		State:        StateRes{Status: d.String(), Outputs: d.ValueMap(), Failure: d.String()},
		View:         MembersView{Partitions: int(d.Int()), Members: decodeList(d, func() MemberInfo { return decodeMember(d) })},
		Lineage:      decodeLineage(d),
	}
	return d.Finish()
}

// encodeMember writes one member; decodeMember reads it back.
func encodeMember(e *codec.Encoder, m MemberInfo) {
	e.String(m.Name)
	e.String(m.Addr)
	e.Uvarint(m.Incarnation)
	e.Bool(m.Up)
	encodeList(e, m.Partitions, func(p int) { e.Uvarint(uint64(p)) })
}

func decodeMember(d *codec.Decoder) MemberInfo {
	m := MemberInfo{Name: d.String(), Addr: d.String(), Incarnation: d.Uvarint(), Up: d.Bool()}
	m.Partitions = decodeList(d, func() int { return int(d.Uvarint()) })
	return m
}

// encodeList writes a counted list, each item by put.
func encodeList[T any](e *codec.Encoder, items []T, put func(T)) {
	e.Uvarint(uint64(len(items)))
	for _, it := range items {
		put(it)
	}
}

// decodeList reads what encodeList wrote, each item by get; none reads as
// nil. The list grows as items are read, so a corrupt count costs nothing.
func decodeList[T any](d *codec.Decoder, get func() T) []T {
	var items []T
	for n := d.Count("list"); n > 0 && d.Err() == nil; n-- {
		items = append(items, get())
	}
	return items
}

// encodeLineage writes a presence byte, then the graph's four maps in key
// order. An item's key is its qualified name, so it is written once.
func encodeLineage(e *codec.Encoder, lg *core.Lineage) {
	e.Bool(lg != nil)
	if lg == nil {
		return
	}
	encodeIndex(e, lg.Items, func(n *core.LineageNode) { e.String(n.Producer); e.StringSlice(n.Consumers) })
	encodeIndex(e, lg.Reads, e.StringSlice)
	encodeIndex(e, lg.Writes, e.StringSlice)
	encodeIndex(e, lg.Programs, e.String)
}

// decodeLineage reads what encodeLineage wrote; a present graph has all four
// maps, empty or not, as core.Engine.Lineage builds it.
func decodeLineage(d *codec.Decoder) *core.Lineage {
	if !d.Bool() {
		return nil
	}
	lg := &core.Lineage{Items: map[string]*core.LineageNode{}, Reads: map[string][]string{},
		Writes: map[string][]string{}, Programs: map[string]string{}}
	decodeIndex(d, lg.Items, func(item string) *core.LineageNode {
		return &core.LineageNode{Item: item, Producer: d.String(), Consumers: d.StringSlice()}
	})
	strs := func(string) []string { return d.StringSlice() }
	decodeIndex(d, lg.Reads, strs)
	decodeIndex(d, lg.Writes, strs)
	decodeIndex(d, lg.Programs, func(string) string { return d.String() })
	return lg
}

// encodeIndex writes a counted map in key order, each value by put.
func encodeIndex[V any](e *codec.Encoder, m map[string]V, put func(V)) {
	e.Uvarint(uint64(len(m)))
	for _, k := range slices.Sorted(maps.Keys(m)) {
		e.String(k)
		put(m[k])
	}
}

// decodeIndex reads what encodeIndex wrote into m, each value by get.
func decodeIndex[V any](d *codec.Decoder, m map[string]V, get func(key string) V) {
	for n := d.Count("lineage map"); n > 0 && d.Err() == nil; n-- {
		k := d.String()
		m[k] = get(k)
	}
}

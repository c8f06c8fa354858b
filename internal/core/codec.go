package core

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"time"

	"bioopera/internal/cluster"
	"bioopera/internal/codec"
	"bioopera/internal/ocr"
	"bioopera/internal/sim"
)

// Binary encoders/decoders for the four persist-record families and the
// event journal's record (DESIGN.md §12). persist encodes live state through
// these under the shard lock and recovery decodes through them; there is no
// other record format. A process text is no record of an instance: it is a
// version record of the template space, raw OCR text, format-free.
//
// An instance record is InstanceMeta and a task record is taskState: the
// record and the live struct are one declaration. The two scope families
// keep a record-shaped struct because their shape differs from the live
// scope's — a create record names its parent by ID and its process by
// hash, a dynamic record holds the owned delta of the whiteboard, not the
// whiteboard.

// Record kinds of the core persist families. The store's WAL records use a
// disjoint range (see internal/store) so a misfiled record fails loudly.
const (
	recMeta   byte = 1 // inst/<id>
	recCreate byte = 2 // scopec/<id>/<scope>
	recDyn    byte = 3 // scoped/<id>/<scope>
	recTask   byte = 4 // task/<id>/<scope>/<task>
	recEvent  byte = 5 // a journal record: one Event
)

// scopeCreateDTO is the immutable part of a scope, written exactly once.
type scopeCreateDTO struct {
	ID         string `json:"id"`
	Parent     string `json:"parent"`
	IsRoot     bool   `json:"isRoot,omitempty"`
	ParentTask string `json:"parentTask,omitempty"`
	ElemIndex  int    `json:"elemIndex"`
	// ProcRef is the content hash of the scope's process text, which the
	// template space holds as the version record proc/<hash>; ProcText is
	// the inline fallback kept for robustness when decoding foreign records.
	ProcRef  string `json:"procRef,omitempty"`
	ProcText string `json:"proc,omitempty"`
}

// scopeDynDTO is the mutable part of a scope as recovery reads it. For a
// block body, Entries carries only the whiteboard keys the scope owns (set
// or pinned after creation) and Drop the keys it masks (the parent gained
// them after this scope spawned); every other key reads through to the
// parent, so an n-wide block's children never serialize the parent
// whiteboard they merely inherit — in the instance space or in the history
// the archive writes. Full marks a complete whiteboard: root scopes and
// subprocess bodies, and block bodies archived before history held deltas.
// The write side is encodeDyn, which produces this layout straight from the
// scope.
type scopeDynDTO struct {
	Entries map[string]ocr.Value `json:"entries,omitempty"`
	Drop    []string             `json:"drop,omitempty"`
	Full    bool                 `json:"full,omitempty"`
	Done    bool                 `json:"done,omitempty"`
}

// decoders recycles record decoders: a decoder keeps its intern table's
// capacity from record to record, so a restart decoding tens of thousands of
// records allocates what they hold and no decoder of its own.
var decoders = sync.Pool{New: func() any { return new(codec.Decoder) }}

// header opens a record for decoding with a pooled decoder and checks it is
// of the wanted family; finish hands the decoder back.
func header(data []byte, want byte) (*codec.Decoder, error) {
	d := decoders.Get().(*codec.Decoder)
	if err := d.Open(data, want); err != nil {
		decoders.Put(d)
		return nil, err
	}
	return d, nil
}

// finish checks that the record was read whole and returns d to the pool.
func finish(d *codec.Decoder) error {
	err := d.Finish()
	decoders.Put(d)
	return err
}

func encodeMeta(e *codec.Encoder, m *InstanceMeta) {
	e.Begin(recMeta)
	e.String(m.ID)
	e.String(m.Template)
	e.Uvarint(uint64(m.Status))
	e.Int(int64(m.Priority))
	e.Bool(m.Nice)
	e.String(m.Tenant)
	e.Int(int64(m.Started))
	e.Int(int64(m.Ended))
	e.Int(int64(m.Activities))
	e.Int(int64(m.CPU))
	e.Int(int64(m.Failures))
	e.Int(int64(m.Retries))
	e.ValueMap(m.Outputs)
	e.String(m.FailureReason)
	e.End()
}

// DecodeInstanceMeta decodes an inst/<id> record.
func DecodeInstanceMeta(data []byte) (InstanceMeta, error) {
	d, err := header(data, recMeta)
	if err != nil {
		return InstanceMeta{}, err
	}
	m := InstanceMeta{
		ID:       d.String(),
		Template: d.String(),
		Status:   InstanceStatus(d.Uvarint()),
		Priority: int(d.Int()),
		Nice:     d.Bool(),
		Tenant:   d.String(),
		Started:  sim.Time(d.Int()),
		Ended:    sim.Time(d.Int()),
	}
	m.Activities = int(d.Int())
	m.CPU = time.Duration(d.Int())
	m.Failures = int(d.Int())
	m.Retries = int(d.Int())
	m.Outputs = d.ValueMap()
	m.FailureReason = d.String()
	return m, finish(d)
}

func encodeCreate(e *codec.Encoder, dto *scopeCreateDTO) {
	e.Begin(recCreate)
	e.String(dto.ID)
	e.String(dto.Parent)
	e.Bool(dto.IsRoot)
	e.String(dto.ParentTask)
	e.Int(int64(dto.ElemIndex))
	e.String(dto.ProcRef)
	e.String(dto.ProcText)
	e.End()
}

func decodeCreateRecord(data []byte) (scopeCreateDTO, error) {
	d, err := header(data, recCreate)
	if err != nil {
		return scopeCreateDTO{}, err
	}
	dto := scopeCreateDTO{
		ID:         d.String(),
		Parent:     d.String(),
		IsRoot:     d.Bool(),
		ParentTask: d.String(),
		ElemIndex:  int(d.Int()),
		ProcRef:    d.String(),
		ProcText:   d.String(),
	}
	return dto, finish(d)
}

// encodeDyn writes a scope's dynamic record in the scope's own form: a
// wbFull scope's whole whiteboard, or an inheriting scope's own entries and
// masks (wbOwn, already in key order) — the layout of a counted map followed
// by a counted string list, written with no map built in between. Every
// checkpoint of the scope, the archive's included, writes this form.
func encodeDyn(e *codec.Encoder, sc *scope) {
	e.Begin(recDyn)
	if sc.wbFull {
		e.ValueMap(sc.Whiteboard)
		e.Uvarint(0)
	} else {
		owned := 0
		for _, o := range sc.wbOwn {
			if o.present {
				owned++
			}
		}
		e.Uvarint(uint64(owned))
		for _, o := range sc.wbOwn {
			if o.present {
				e.String(o.key)
				e.Value(o.val)
			}
		}
		e.Uvarint(uint64(len(sc.wbOwn) - owned))
		for _, o := range sc.wbOwn {
			if !o.present {
				e.String(o.key)
			}
		}
	}
	e.Bool(sc.wbFull)
	e.Bool(sc.Done)
	e.End()
}

func decodeDynRecord(data []byte) (scopeDynDTO, error) {
	d, err := header(data, recDyn)
	if err != nil {
		return scopeDynDTO{}, err
	}
	dto := scopeDynDTO{
		Entries: d.ValueMap(),
		Drop:    d.StringSlice(),
		Full:    d.Bool(),
		Done:    d.Bool(),
	}
	return dto, finish(d)
}

// encodeTask writes a task record. ChildWaiting and Results are derived
// state (see taskState) and are written as zero in their slots; ConnIn has
// no slot.
func encodeTask(e *codec.Encoder, ts *taskState) {
	e.Begin(recTask)
	e.String(ts.Name)
	e.Uvarint(uint64(ts.Status))
	e.Int(int64(ts.Attempts))
	e.ValueMap(ts.Inputs)
	e.ValueMap(ts.Outputs)
	e.String(ts.Node)
	e.String(ts.Job)
	e.String(ts.AltOf)
	e.Int(int64(ts.ReadyAt))
	e.Int(int64(ts.StartedAt))
	e.Int(int64(ts.EndedAt))
	e.Int(int64(ts.CPUTime))
	e.Int(0)
	e.ValueSlice(nil)
	e.ValueSlice(ts.OverElems)
	e.End()
}

// decodeTaskRecord fills the persisted fields of ts from a task record. The
// rest — ConnIn, the record's key, the dispatch attempt — belongs to the slot
// it decodes into and is left as it is.
func decodeTaskRecord(data []byte, ts *taskState) error {
	d, err := header(data, recTask)
	if err != nil {
		return err
	}
	ts.Name = d.String()
	ts.Status = TaskStatus(d.Uvarint())
	ts.Attempts = int(d.Int())
	ts.Inputs = d.ValueMap()
	ts.Outputs = d.ValueMap()
	ts.Node = d.String()
	ts.Job = d.String()
	ts.AltOf = d.String()
	ts.ReadyAt = sim.Time(d.Int())
	ts.StartedAt = sim.Time(d.Int())
	ts.EndedAt = sim.Time(d.Int())
	ts.CPUTime = time.Duration(d.Int())
	ts.ChildWaiting = int(d.Int())
	ts.Results = d.ValueSlice()
	ts.OverElems = d.ValueSlice()
	return finish(d)
}

// evLoadReport is the kind of the sim driver's load-report journal records.
const evLoadReport EventKind = "load-report"

// eventCodes is the event record's kind-code table: code i stands for kind
// eventCodes[i]. The table is part of the on-disk format (DESIGN.md §12):
// a new kind is appended; a code is never reordered, removed or reused.
// Code 0 says the kind follows as a literal string, so a kind the table
// does not know still round-trips.
var eventCodes = [...]EventKind{
	"",
	EvInstanceStarted, EvInstanceDone, EvInstanceFailed, EvInstanceSuspended,
	EvInstanceResumed, EvTaskReady, EvTaskDispatched, EvTaskEnded,
	EvTaskFailed, EvTaskRetried, EvTaskTimeout, EvTaskDead,
	EvServerRecovered, EvSphereAborted, EvUndoRun, EvUndoFailed,
	EvTaskAwaiting, EvSignal, EvPersistError, EvNodeJoined, EvNodeDown,
	EvTaskUnplaceable,
	"cluster-node-down", "cluster-node-up", "cluster-cpu-change", "cluster-load-change",
	"cluster-job-start", "cluster-job-end", "cluster-job-fail",
	evLoadReport,
}

// codeClusterEvent is the code of cluster.EvNodeDown's kind; the other
// cluster.EventTypes follow it in order.
const codeClusterEvent = 23

// allEventKinds are the engine's own kinds, each with a pre-registered
// counter so the emit path never takes the vec's slow path.
var allEventKinds = eventCodes[1:codeClusterEvent]

// eventCodeOf inverts eventCodes; a kind it lacks is written with code 0.
var eventCodeOf = func() map[EventKind]uint64 {
	m := make(map[EventKind]uint64, len(eventCodes)-1)
	for code, k := range eventCodes[1:] {
		m[k] = uint64(code + 1)
	}
	return m
}()

// clusterEventKind is the journal kind of an infrastructure event,
// "cluster-" + t.String(), taken from the code table for every type it has.
func clusterEventKind(t cluster.EventType) EventKind {
	if t <= cluster.EvJobFail {
		return eventCodes[codeClusterEvent+int(t)]
	}
	return EventKind("cluster-" + t.String())
}

// appendEvent appends ev's journal record to buf: At, the kind's code (and,
// for code 0, the kind), then Instance, Scope, Task, Node and Detail.
func appendEvent(buf []byte, ev *Event) []byte {
	buf = codec.AppendHeader(buf, recEvent)
	buf = codec.AppendInt(buf, int64(ev.At))
	code := eventCodeOf[ev.Kind]
	buf = binary.AppendUvarint(buf, code)
	if code == 0 {
		buf = codec.AppendString(buf, string(ev.Kind))
	}
	for _, s := range [...]string{ev.Instance, ev.Scope, ev.Task, ev.Node, ev.Detail} {
		buf = codec.AppendString(buf, s)
	}
	return buf
}

// DecodeEvent decodes a journal record; every error wraps codec.ErrCorrupt.
func DecodeEvent(data []byte) (Event, error) {
	d, err := header(data, recEvent)
	if err != nil {
		return Event{}, err
	}
	ev := Event{At: sim.Time(d.Int())}
	code := d.Uvarint()
	if code == 0 {
		ev.Kind = EventKind(d.String())
	} else if code < uint64(len(eventCodes)) {
		ev.Kind = eventCodes[code]
	}
	ev.Instance = d.String()
	ev.Scope = d.String()
	ev.Task = d.String()
	ev.Node = d.String()
	ev.Detail = d.String()
	if err := finish(d); err != nil {
		return Event{}, err
	}
	if code >= uint64(len(eventCodes)) {
		return Event{}, fmt.Errorf("%w: unknown event kind code %d", codec.ErrCorrupt, code)
	}
	return ev, nil
}

// FormatRecord decodes one instance/history-space store record for a human
// to read: a codec record comes back as its decoded struct, for the caller
// to render.
func FormatRecord(key string, value []byte) (any, error) {
	switch {
	case strings.HasPrefix(key, "inst/"):
		return DecodeInstanceMeta(value)
	case strings.HasPrefix(key, "scopec/"):
		return decodeCreateRecord(value)
	case strings.HasPrefix(key, "scoped/"):
		return decodeDynRecord(value)
	case strings.HasPrefix(key, "task/"):
		var ts taskState
		return &ts, decodeTaskRecord(value, &ts)
	}
	return nil, fmt.Errorf("core: unknown record family for key %q", key)
}

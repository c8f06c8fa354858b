package core

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"bioopera/internal/codec"
	"bioopera/internal/ocr"
	"bioopera/internal/sim"
)

// Binary encoders/decoders for the four persist-record families (DESIGN.md
// §12). persist encodes live state through these under the shard lock and
// recovery decodes through them; there is no other record format. Interned
// proc/ records are raw process text and stay format-free.
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
)

// scopeCreateDTO is the immutable part of a scope, written exactly once.
type scopeCreateDTO struct {
	ID         string `json:"id"`
	Parent     string `json:"parent"`
	IsRoot     bool   `json:"isRoot,omitempty"`
	ParentTask string `json:"parentTask,omitempty"`
	ElemIndex  int    `json:"elemIndex"`
	// ProcRef names an interned proc/<inst>/<hash> record; ProcText is the
	// inline fallback kept for robustness when decoding foreign records.
	ProcRef  string `json:"procRef,omitempty"`
	ProcText string `json:"proc,omitempty"`
}

// scopeDynDTO is the mutable part of a scope as recovery reads it. Entries
// carries only the whiteboard keys this scope owns (explicitly set after
// creation); unowned keys re-inherit the parent scope's value on recovery,
// so an n-wide block's children never re-serialize the parent whiteboard
// they merely inherited. Drop masks keys the parent gained after this scope
// spawned. Full marks a complete whiteboard (root scopes, subprocess
// bodies, archived records). The write side is encodeDyn, which produces
// this layout straight from the scope.
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
func header(data []byte, want byte, family string) (*codec.Decoder, error) {
	d := decoders.Get().(*codec.Decoder)
	kind, err := d.Reset(data)
	if err == nil && kind != want {
		err = fmt.Errorf("%w: kind %d is not %s record", codec.ErrCorrupt, kind, family)
	}
	if err != nil {
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
	d, err := header(data, recMeta, "an instance")
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
	d, err := header(data, recCreate, "a scope-create")
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

// encodeDyn writes a scope's dynamic record: with full set (archives) or on
// a wbFull scope the whole whiteboard, otherwise the owned entries and the
// Drop mask, both in sorted key order — the layout of a counted map
// followed by a counted string list, written from the live whiteboard with
// no map built in between.
func encodeDyn(e *codec.Encoder, sc *scope, full bool) {
	e.Begin(recDyn)
	full = full || sc.wbFull
	if full {
		e.ValueMap(sc.Whiteboard)
		e.Uvarint(0)
	} else {
		var buf [8]string // a block child owns its element and its outputs
		keys := buf[:0]
		owned := 0
		for k, present := range sc.wbOwn {
			keys = append(keys, k)
			if present {
				owned++
			}
		}
		slices.Sort(keys)
		e.Uvarint(uint64(owned))
		for _, k := range keys {
			if sc.wbOwn[k] {
				e.String(k)
				e.Value(sc.Whiteboard[k])
			}
		}
		e.Uvarint(uint64(len(keys) - owned))
		for _, k := range keys {
			if !sc.wbOwn[k] {
				e.String(k)
			}
		}
	}
	e.Bool(full)
	e.Bool(sc.Done)
	e.End()
}

func decodeDynRecord(data []byte) (scopeDynDTO, error) {
	d, err := header(data, recDyn, "a scope-dynamic")
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

// decodeTaskRecord fills ts from a task record; ConnIn is left for the
// caller, which knows the process.
func decodeTaskRecord(data []byte, ts *taskState) error {
	d, err := header(data, recTask, "a task")
	if err != nil {
		return err
	}
	*ts = taskState{
		Name:     d.String(),
		Status:   TaskStatus(d.Uvarint()),
		Attempts: int(d.Int()),
		Inputs:   d.ValueMap(),
		Outputs:  d.ValueMap(),
		Node:     d.String(),
		Job:      d.String(),
		AltOf:    d.String(),
	}
	ts.ReadyAt = sim.Time(d.Int())
	ts.StartedAt = sim.Time(d.Int())
	ts.EndedAt = sim.Time(d.Int())
	ts.CPUTime = time.Duration(d.Int())
	ts.ChildWaiting = int(d.Int())
	ts.Results = d.ValueSlice()
	ts.OverElems = d.ValueSlice()
	return finish(d)
}

// FormatRecord renders one instance/history-space store record for a human:
// codec records come back as indented JSON, interned process texts as the
// raw text.
func FormatRecord(key string, value []byte) (string, error) {
	var (
		rec any
		err error
	)
	switch {
	case strings.HasPrefix(key, "inst/"):
		rec, err = DecodeInstanceMeta(value)
	case strings.HasPrefix(key, "scopec/"):
		rec, err = decodeCreateRecord(value)
	case strings.HasPrefix(key, "scoped/"):
		rec, err = decodeDynRecord(value)
	case strings.HasPrefix(key, "task/"):
		var ts taskState
		err = decodeTaskRecord(value, &ts)
		rec = &ts
	case strings.HasPrefix(key, "proc/"):
		return string(value), nil
	default:
		return "", fmt.Errorf("core: unknown record family for key %q", key)
	}
	if err != nil {
		return "", err
	}
	out, err := json.MarshalIndent(rec, "", "  ")
	return string(out), err
}

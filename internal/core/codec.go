package core

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"bioopera/internal/codec"
	"bioopera/internal/ocr"
	"bioopera/internal/sim"
	"bioopera/internal/store"
)

// Binary encoders/decoders for the persist-record DTO families (DESIGN.md
// §12). The checkpoint flusher encodes through these and recovery decodes
// through them; there is no other record format. Interned proc/ records are
// raw process text and stay format-free.

// Record kinds of the core persist families. The store's WAL records use a
// disjoint range (see internal/store) so a misfiled record fails loudly.
const (
	recMeta   byte = 1 // inst/<id>
	recCreate byte = 2 // scopec/<id>/<scope>
	recDyn    byte = 3 // scoped/<id>/<scope>
	recTask   byte = 4 // task/<id>/<scope>/<task>
)

func encodeMeta(e *codec.Encoder, dto *instanceDTO) int {
	e.Begin(recMeta)
	e.String(dto.ID)
	e.String(dto.Template)
	e.Uvarint(uint64(dto.Status))
	e.Int(int64(dto.Priority))
	e.Bool(dto.Nice)
	e.String(dto.Tenant)
	e.Int(int64(dto.Started))
	e.Int(int64(dto.Ended))
	e.Int(int64(dto.Activities))
	e.Int(int64(dto.CPU))
	e.Int(int64(dto.Failures))
	e.Int(int64(dto.Retries))
	e.ValueMap(dto.Outputs)
	e.String(dto.FailureReason)
	return e.End()
}

func decodeMetaRecord(data []byte) (instanceDTO, error) {
	d, kind, err := codec.NewDecoder(data)
	if err != nil {
		return instanceDTO{}, err
	}
	if kind != recMeta {
		return instanceDTO{}, fmt.Errorf("%w: kind %d is not an instance record", codec.ErrCorrupt, kind)
	}
	dto := instanceDTO{
		ID:       d.String(),
		Template: d.String(),
		Status:   InstanceStatus(d.Uvarint()),
		Priority: int(d.Int()),
		Nice:     d.Bool(),
		Tenant:   d.String(),
		Started:  sim.Time(d.Int()),
		Ended:    sim.Time(d.Int()),
	}
	dto.Activities = int(d.Int())
	dto.CPU = time.Duration(d.Int())
	dto.Failures = int(d.Int())
	dto.Retries = int(d.Int())
	dto.Outputs = d.ValueMap()
	dto.FailureReason = d.String()
	return dto, d.Finish()
}

func encodeCreate(e *codec.Encoder, dto *scopeCreateDTO) int {
	e.Begin(recCreate)
	e.String(dto.ID)
	e.String(dto.Parent)
	e.Bool(dto.IsRoot)
	e.String(dto.ParentTask)
	e.Int(int64(dto.ElemIndex))
	e.String(dto.ProcRef)
	e.String(dto.ProcText)
	return e.End()
}

func decodeCreateRecord(data []byte) (scopeCreateDTO, error) {
	d, kind, err := codec.NewDecoder(data)
	if err != nil {
		return scopeCreateDTO{}, err
	}
	if kind != recCreate {
		return scopeCreateDTO{}, fmt.Errorf("%w: kind %d is not a scope-create record", codec.ErrCorrupt, kind)
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
	return dto, d.Finish()
}

func encodeDyn(e *codec.Encoder, dto *scopeDynDTO) int {
	e.Begin(recDyn)
	e.ValueMap(dto.Entries)
	e.StringSlice(dto.Drop)
	e.Bool(dto.Full)
	e.Bool(dto.Done)
	return e.End()
}

func decodeDynRecord(data []byte) (scopeDynDTO, error) {
	d, kind, err := codec.NewDecoder(data)
	if err != nil {
		return scopeDynDTO{}, err
	}
	if kind != recDyn {
		return scopeDynDTO{}, fmt.Errorf("%w: kind %d is not a scope-dynamic record", codec.ErrCorrupt, kind)
	}
	dto := scopeDynDTO{
		Entries: d.ValueMap(),
		Drop:    d.StringSlice(),
		Full:    d.Bool(),
		Done:    d.Bool(),
	}
	return dto, d.Finish()
}

func encodeTask(e *codec.Encoder, dto *taskDTO) int {
	e.Begin(recTask)
	e.String(dto.Name)
	e.Uvarint(uint64(dto.Status))
	e.Int(int64(dto.Attempts))
	e.ValueMap(dto.Inputs)
	e.ValueMap(dto.Outputs)
	e.String(dto.Node)
	e.String(dto.Job)
	e.String(dto.AltOf)
	e.Int(int64(dto.ReadyAt))
	e.Int(int64(dto.StartedAt))
	e.Int(int64(dto.EndedAt))
	e.Int(int64(dto.CPUTime))
	e.Int(int64(dto.ChildWaiting))
	e.ValueSlice(dto.Results)
	e.ValueSlice(dto.OverElems)
	return e.End()
}

func decodeTaskRecord(data []byte) (taskDTO, error) {
	d, kind, err := codec.NewDecoder(data)
	if err != nil {
		return taskDTO{}, err
	}
	if kind != recTask {
		return taskDTO{}, fmt.Errorf("%w: kind %d is not a task record", codec.ErrCorrupt, kind)
	}
	dto := taskDTO{
		Name:     d.String(),
		Status:   TaskStatus(d.Uvarint()),
		Attempts: int(d.Int()),
		Inputs:   d.ValueMap(),
		Outputs:  d.ValueMap(),
		Node:     d.String(),
		Job:      d.String(),
		AltOf:    d.String(),
	}
	dto.ReadyAt = sim.Time(d.Int())
	dto.StartedAt = sim.Time(d.Int())
	dto.EndedAt = sim.Time(d.Int())
	dto.CPUTime = time.Duration(d.Int())
	dto.ChildWaiting = int(d.Int())
	dto.Results = d.ValueSlice()
	dto.OverElems = d.ValueSlice()
	return dto, d.Finish()
}

// DecodeInstanceMeta decodes an inst/<id> record into its exported shape —
// the operator-facing view used by the history CLI and the records
// inspector.
func DecodeInstanceMeta(data []byte) (InstanceMeta, error) {
	dto, err := decodeMetaRecord(data)
	if err != nil {
		return InstanceMeta{}, err
	}
	return InstanceMeta{
		ID: dto.ID, Template: dto.Template, Status: dto.Status,
		Priority: dto.Priority, Nice: dto.Nice, Tenant: dto.Tenant,
		Started: dto.Started, Ended: dto.Ended,
		Activities: dto.Activities, CPU: dto.CPU,
		Failures: dto.Failures, Retries: dto.Retries,
		Outputs: dto.Outputs, FailureReason: dto.FailureReason,
	}, nil
}

// InstanceMeta is the exported form of an instance metadata record.
type InstanceMeta struct {
	ID            string               `json:"id"`
	Template      string               `json:"template"`
	Status        InstanceStatus       `json:"status"`
	Priority      int                  `json:"priority,omitempty"`
	Nice          bool                 `json:"nice,omitempty"`
	Tenant        string               `json:"tenant,omitempty"`
	Started       sim.Time             `json:"started"`
	Ended         sim.Time             `json:"ended,omitempty"`
	Activities    int                  `json:"activities,omitempty"`
	CPU           time.Duration        `json:"cpu,omitempty"`
	Failures      int                  `json:"failures,omitempty"`
	Retries       int                  `json:"retries,omitempty"`
	Outputs       map[string]ocr.Value `json:"outputs,omitempty"`
	FailureReason string               `json:"failureReason,omitempty"`
}

// FormatRecord renders one instance/history-space store record for a human:
// codec records come back as indented JSON, interned process texts as the
// raw text.
func FormatRecord(key string, value []byte) (string, error) {
	var (
		dto any
		err error
	)
	switch {
	case strings.HasPrefix(key, "inst/"):
		dto, err = decodeMetaRecord(value)
	case strings.HasPrefix(key, "scopec/"):
		dto, err = decodeCreateRecord(value)
	case strings.HasPrefix(key, "scoped/"):
		dto, err = decodeDynRecord(value)
	case strings.HasPrefix(key, "task/"):
		dto, err = decodeTaskRecord(value)
	case strings.HasPrefix(key, "proc/"):
		return string(value), nil
	default:
		return "", fmt.Errorf("core: unknown record family for key %q", key)
	}
	if err != nil {
		return "", err
	}
	out, err := json.MarshalIndent(dto, "", "  ")
	return string(out), err
}

// encodeCkpt encodes every DTO of a checkpoint into the checkpoint's
// pooled encoder and assembles the store ops. Spans are taken only after
// all records are encoded — appending can relocate the encoder's buffer.
// Binary encoding is total (unlike JSON, which rejects NaN numbers), so
// there is no per-record failure path: a whiteboard value that would have
// poisoned a JSON checkpoint now round-trips.
func encodeCkpt(in *Instance, ck *ckpt, space store.Space) (ops []store.Op, bytes int) {
	e := &ck.enc
	e.Reset()
	encodeMeta(e, &ck.meta)
	for i := range ck.creates {
		encodeCreate(e, &ck.creates[i].dto)
	}
	for i := range ck.dyns {
		encodeDyn(e, &ck.dyns[i].dto)
	}
	for i := range ck.tasks {
		encodeTask(e, &ck.tasks[i].dto)
	}
	ops = ck.ops[:0]
	next := 0
	span := func() []byte {
		s := e.Span(next)
		next++
		return s
	}
	ops = append(ops, store.Op{Space: space, Key: metaKey(in.ID), Value: span()})
	bytes = len(e.Buf)
	for _, ps := range ck.procs {
		ops = append(ops, store.Op{Space: space, Key: procKey(in.ID, ps.hash), Value: []byte(ps.text)})
		bytes += len(ps.text)
	}
	for i := range ck.creates {
		ops = append(ops, store.Op{Space: space, Key: scopeCreateKey(in.ID, ck.creates[i].dto.ID), Value: span()})
	}
	for i := range ck.dyns {
		ops = append(ops, store.Op{Space: space, Key: scopeDynKey(in.ID, ck.dyns[i].sc.ID), Value: span()})
	}
	for i := range ck.tasks {
		ops = append(ops, store.Op{Space: space, Key: taskKey(in.ID, ck.tasks[i].sc.ID, ck.tasks[i].dto.Name), Value: span()})
	}
	return ops, bytes
}

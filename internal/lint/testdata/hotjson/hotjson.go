// Package hotjson is a biooperalint golden fixture: encoding/json use
// inside record-path functions. The fixture package stands in for
// internal/core, so the function names below match the real engine's
// checkpoint flusher and recovery decoder. The fixture's list also names
// snapshotScope, which no file here declares — a guarded name that was
// refactored away is reported on the package clause.
package hotjson // want `guards record-path function snapshotScope, which .* no longer declares`

import (
	"bytes"
	"encoding/json"
	enc "encoding/json"
)

type record struct {
	ID string `json:"id"`
}

// flushCkpt is a hot-path name: reflection-based marshaling is banned.
func flushCkpt(r record) ([]byte, error) {
	return json.Marshal(r) // want `json\.Marshal in record-path function flushCkpt`
}

// cutCkpt catches aliased imports too.
func cutCkpt(r record) ([]byte, error) {
	return enc.Marshal(r) // want `json\.Marshal in record-path function cutCkpt`
}

// persist catches streaming encoders as well as one-shot marshals.
func persist(r record) error {
	var buf bytes.Buffer
	return json.NewEncoder(&buf).Encode(r) // want `json\.NewEncoder in record-path function persist`
}

// decodeInstanceRecords is the read side: a JSON fallback for records of
// an older generation is exactly what must not come back.
func decodeInstanceRecords(data []byte) (record, error) {
	var r record
	err := json.Unmarshal(data, &r) // want `json\.Unmarshal in record-path function decodeInstanceRecords`
	return r, err
}

// Frame is guarded by name on every receiver, as internal/remote's two
// inbound handlers are: a JSON fallback decoder for a peer of an older wire
// generation is what must not come back to the worker link.
type (
	serverSide struct{}
	workerSide struct{}
)

func (serverSide) Frame(kind byte, body []byte) error {
	var r record
	return json.Unmarshal(body, &r) // want `json\.Unmarshal in record-path function Frame`
}

func (workerSide) Frame(kind byte, body []byte) error {
	return enc.NewDecoder(bytes.NewReader(body)).Decode(new(record)) // want `json\.NewDecoder in record-path function Frame`
}

// renderRecord is not a record-path name: showing a decoded record to an
// operator as JSON is legal.
func renderRecord(r record) ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// archive documents a sanctioned exception; the directive silences it.
func archive(r record) ([]byte, error) {
	//bioopera:allow hotjson fixture: exercising the suppression path
	return json.Marshal(r)
}

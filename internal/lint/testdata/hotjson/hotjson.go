// Package hotjson is a biooperalint golden fixture: a package under
// internal/ that imports encoding/json. Marshaling a record here is exactly
// what must not come back; the import is the finding, wherever it is used.
package hotjson

import (
	"bytes"
	"encoding/json" // want `hotjson imports encoding/json: under internal/ only obs and ocr make JSON`
)

type record struct {
	ID string `json:"id"`
}

// persist would write a JSON record beside the codec's.
func persist(r record) error {
	var buf bytes.Buffer
	return json.NewEncoder(&buf).Encode(r)
}

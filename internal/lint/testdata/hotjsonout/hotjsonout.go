// Package hotjsonout is a biooperalint golden fixture: a package the hotjson
// rule allows to import encoding/json, as it allows internal/obs and
// internal/ocr. It expects no diagnostic.
package hotjsonout

import "encoding/json"

// Summary is output, shown to an operator.
type Summary struct {
	Instances int `json:"instances"`
}

// Render shows a summary as JSON.
func Render(s Summary) ([]byte, error) {
	return json.Marshal(s)
}

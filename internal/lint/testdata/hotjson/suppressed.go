package hotjson

import (
	//bioopera:allow hotjson fixture: exercising the suppression path
	enc "encoding/json"
)

// render documents a sanctioned exception; the directive silences it.
func render(r record) ([]byte, error) {
	return enc.MarshalIndent(r, "", "  ")
}

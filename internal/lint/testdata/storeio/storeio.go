// Package storeio is a biooperalint golden fixture: a package the storeio
// rule holds to no file I/O, as it holds internal/store, that imports os to
// write a snapshot beside the log instead of through it.
package storeio

import (
	"bytes"
	"os" // want `storeio imports os: the store does no file I/O of its own`
)

// saveSnapshot would write state the log never frames or ships.
func saveSnapshot(path string, state []byte) error {
	return os.WriteFile(path, bytes.Clone(state), 0o644)
}

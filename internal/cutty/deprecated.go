package cutty

import "encoding/gob"

// Snapshot gob-encodes the engine's AppendState bytes.
//
// Deprecated: use AppendState.
func (e *Engine) Snapshot(enc *gob.Encoder) error { return enc.Encode(e.AppendState(nil)) }

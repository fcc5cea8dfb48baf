package nn

import (
	"encoding/gob"
	"io"
)

// init pins gob type IDs for the package's wire types. encoding/gob
// allocates type IDs from a process-global counter in first-encode
// order, so two runs of the same binary that reach their first Encode
// through different code paths (e.g. a run that writes a checkpoint
// before its first model file vs one that saves a model first) would
// write byte-different streams for identical values. Encoding a
// zero value at init time fixes the allocation to package-init order —
// deterministic for a given binary — which is what keeps model and
// checkpoint artifacts byte-identical across runtime paths.
func init() {
	enc := gob.NewEncoder(io.Discard)
	//lint:ignore unchecked-error warming the global gob type registry; encoding zero values of concrete wire types cannot fail
	enc.Encode([]ParamBlob{})
	//lint:ignore unchecked-error warming the global gob type registry; encoding zero values of concrete wire types cannot fail
	enc.Encode(AdamState{})
}

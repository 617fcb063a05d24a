package joins

import (
	"d3l/internal/core"
	"d3l/internal/persist"
)

// LegacyGraphSection is the graph section a snapshot version 2–4 build
// wrote for e: buildGraphReference's full edges in encodeV4Graph's
// layout.
func LegacyGraphSection(e *core.Engine) []byte {
	var b persist.Buffer
	encodeV4Graph(&b, buildGraphReference(e))
	return payload(&b)
}

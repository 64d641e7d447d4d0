package randomwalk

// Wire adapter for the transport layer (internal/transport): the byte
// codec for the walk programs' (unexported) token payload. See
// internal/congest/wire.go for the codec contract.

import (
	"encoding/binary"
	"fmt"
	"math"

	"almostmix/internal/congest"
)

// EncodeWalkPayload appends the canonical encoding of a walk token.
func EncodeWalkPayload(buf []byte, m congest.Message) ([]byte, error) {
	if m.Kind != kindWalk {
		return nil, fmt.Errorf("randomwalk: walk payload codec got message kind %d", m.Kind)
	}
	tok := walkTokenOf(m)
	buf = binary.AppendUvarint(buf, uint64(tok.Left))
	buf = binary.AppendUvarint(buf, uint64(tok.Origin))
	return binary.AppendUvarint(buf, uint64(tok.Seq)), nil
}

// DecodeWalkPayload parses the bytes EncodeWalkPayload produced: three
// canonical uvarints, each within a token field's int32 range.
func DecodeWalkPayload(b []byte) (congest.Message, error) {
	var f [3]uint64
	for i := range f {
		v, n := congest.Uvarint(b)
		if n == 0 || v > math.MaxInt32 {
			return congest.Message{}, fmt.Errorf("randomwalk: malformed walk payload")
		}
		f[i], b = v, b[n:]
	}
	if len(b) != 0 {
		return congest.Message{}, fmt.Errorf("randomwalk: malformed walk payload")
	}
	return walkToken{Left: int32(f[0]), Origin: int32(f[1]), Seq: int32(f[2])}.message(), nil
}

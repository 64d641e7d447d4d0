package randomwalk

// Wire adapter for the transport layer (internal/transport): the byte
// codec for the walk programs' (unexported) token payload. See
// internal/congest/wire.go for the codec contract.

import (
	"encoding/binary"
	"fmt"

	"almostmix/internal/congest"
)

// EncodeWalkPayload appends the canonical encoding of a walk token.
func EncodeWalkPayload(buf []byte, m congest.Message) ([]byte, error) {
	tok, ok := m.(walkToken)
	if !ok {
		return nil, fmt.Errorf("randomwalk: walk payload codec got %T", m)
	}
	buf = binary.AppendUvarint(buf, uint64(tok.Left))
	buf = binary.AppendUvarint(buf, uint64(tok.Origin))
	return binary.AppendUvarint(buf, uint64(tok.Seq)), nil
}

// DecodeWalkPayload parses the bytes EncodeWalkPayload produced.
func DecodeWalkPayload(b []byte) (congest.Message, error) {
	left, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, fmt.Errorf("randomwalk: malformed walk payload")
	}
	b = b[n:]
	origin, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, fmt.Errorf("randomwalk: malformed walk payload")
	}
	b = b[n:]
	seq, n := binary.Uvarint(b)
	if n <= 0 || n != len(b) {
		return nil, fmt.Errorf("randomwalk: malformed walk payload")
	}
	return walkToken{Left: int32(left), Origin: int32(origin), Seq: int32(seq)}, nil
}

// Package wire defines the frame-level encoding of the TCP transport:
// the Frame shape both ends exchange, its length-prefixed binary
// encoding, and the versioned connection header both ends open with.
//
// Each frame kind and each engine protocol message is described once,
// as a list of field calls on a codec that both directions run:
// encoding appends the fields, decoding reads them back in the same
// order, so the two cannot drift apart, and testdata/frames.golden pins
// the bytes. The hot wire path (bid requests fanning out, bids
// streaming back, assignments going out) pays no reflection and no
// per-connection type-descriptor state. Because frames are stateless
// byte strings and encoding only reads the frame, a fanout can encode
// an envelope once and write the same bytes to every subscriber
// connection.
//
// A client opens its connection with the 5-byte header "XFW" + version
// + codec id before its hello frame, and the server echoes the same
// header back before its first frame. A peer that opens with anything
// else is refused (ExpectHeader) rather than misparsed.
package wire

import (
	"bufio"
	"fmt"
	"io"
	"time"

	"crossflow/internal/broker"
)

// Frame kinds. The numeric values are wire format, so entries are
// append-only.
const (
	KindHello byte = iota + 1
	KindSend
	KindPublish
	KindPubAck
	KindSubscribe
	KindUnsubscribe
	KindDelivery
	KindDeregister
	// KindSendMulti is a targeted multicast: one payload delivered to
	// every endpoint named in Targets, sharing one envelope server-side
	// (the wire counterpart of broker.Endpoint.SendMulti). Acked with a
	// KindPubAck carrying the reached count, like a publish.
	KindSendMulti
)

// Frame is the single wire message shape; Kind selects the meaning and
// which fields are populated.
type Frame struct {
	Kind    byte
	Seq     uint64
	Name    string
	To      string
	Topic   string
	Link    time.Duration
	Count   int
	Targets []string
	Env     broker.Envelope
	Payload any
}

// Connection header: magic, protocol version, codec id.
const (
	// headerLen is the full header size: 3 magic bytes, 1 version, 1
	// codec id.
	headerLen = 5
	// Version is the wire-protocol version named in the header. A peer
	// refuses a header with a version it does not know, so a future
	// incompatible format change fails loudly at connect instead of
	// corrupting a stream.
	Version byte = 1

	codecIDBinary byte = 'b'
)

var magic = [3]byte{'X', 'F', 'W'}

// WriteHeader writes the connection header.
func WriteHeader(w io.Writer) error {
	_, err := w.Write([]byte{magic[0], magic[1], magic[2], Version, codecIDBinary})
	return err
}

// ExpectHeader reads and verifies the peer's connection header: the
// server calls it on a fresh connection, the client on the server's
// echo. A peer that starts with anything else — a pre-header gob
// speaker, a stray HTTP request, a truncated or wrong-version header —
// does not speak this protocol, and the connection cannot be
// interpreted.
func ExpectHeader(br *bufio.Reader) error {
	var buf [headerLen]byte
	if _, err := io.ReadFull(br, buf[:]); err != nil {
		return fmt.Errorf("wire: reading connection header: %w", err)
	}
	if buf[0] != magic[0] || buf[1] != magic[1] || buf[2] != magic[2] {
		return fmt.Errorf("wire: peer opened with %q, not the XFW connection header", buf[:3])
	}
	if buf[3] != Version {
		return fmt.Errorf("wire: peer speaks protocol version %d (want %d)", buf[3], Version)
	}
	if buf[4] != codecIDBinary {
		return fmt.Errorf("wire: unknown codec id %q in connection header", buf[4])
	}
	return nil
}

package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// MaxFrame bounds one binary frame on the wire. A length prefix beyond
// it is rejected before any allocation, so a corrupt or hostile peer
// cannot make the decoder reserve arbitrary memory.
const MaxFrame = 8 << 20

// maxValueDepth bounds nesting of encoded values (a job payload may
// itself be a job carrying a payload, …) so a malicious byte string
// cannot drive the decoder into unbounded recursion.
const maxValueDepth = 32

// Encoder writes frames to one side of a connection, each framed on
// the stream as a little-endian uint32 body length followed by the body
// (see AppendFrame). It buffers: a frame is on the wire only after
// Flush. Encoders are not safe for concurrent use; callers serialize
// (the transport holds a per-connection write lock).
type Encoder struct {
	bw      *bufio.Writer
	scratch []byte
}

// NewEncoder returns an Encoder writing to w.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{bw: bufio.NewWriterSize(w, 32<<10)}
}

// Encode appends one frame to the write buffer.
func (e *Encoder) Encode(f *Frame) error {
	body, err := AppendFrame(e.scratch[:0], f)
	if err != nil {
		return err
	}
	e.scratch = body[:0]
	return e.EncodeRaw(body)
}

// EncodeRaw appends a pre-encoded frame body produced by AppendFrame —
// the shared-envelope fanout path.
func (e *Encoder) EncodeRaw(body []byte) error {
	if len(body) > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds MaxFrame", len(body))
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := e.bw.Write(hdr[:]); err != nil {
		return err
	}
	_, err := e.bw.Write(body)
	return err
}

// Flush writes the buffer to the connection.
func (e *Encoder) Flush() error { return e.bw.Flush() }

// Decoder reads frames from one side of a connection.
type Decoder struct {
	r   *bufio.Reader
	buf []byte
}

// NewDecoder returns a Decoder reading from r.
func NewDecoder(r *bufio.Reader) *Decoder { return &Decoder{r: r} }

// Decode reads one length-prefixed frame into f.
func (d *Decoder) Decode(f *Frame) error {
	var hdr [4]byte
	if _, err := io.ReadFull(d.r, hdr[:]); err != nil {
		return err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 || n > MaxFrame {
		return fmt.Errorf("wire: frame length %d out of range", n)
	}
	if cap(d.buf) < int(n) {
		d.buf = make([]byte, n)
	}
	body := d.buf[:n]
	if _, err := io.ReadFull(d.r, body); err != nil {
		return err
	}
	return ParseFrame(body, f)
}

// AppendFrame appends the binary body of f to dst and returns the
// extended slice. The body carries no length prefix; the stream layer
// adds one. Bodies are deterministic and connection-independent, which
// is what lets a fanout encode once and write everywhere.
func AppendFrame(dst []byte, f *Frame) ([]byte, error) {
	c := codec{buf: dst}
	c.frame(f)
	return c.buf, c.err
}

// ParseFrame decodes one binary frame body into f, replacing all of
// its contents. It never panics: malformed input — truncated fields,
// out-of-range lengths, unknown kinds or value tags, over-deep nesting,
// trailing bytes — returns an error, and no allocation is sized beyond
// the input itself.
func ParseFrame(body []byte, f *Frame) error {
	*f = Frame{}
	c := codec{dec: true, data: body}
	c.frame(f)
	if c.err == nil && c.remaining() > 0 {
		c.fail("%d trailing bytes after frame", c.remaining())
	}
	return c.err
}

package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"
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
	dst = append(dst, f.Kind)
	var err error
	switch f.Kind {
	case KindHello:
		dst = appendString(dst, f.Name)
		dst = binary.AppendVarint(dst, int64(f.Link))
	case KindSend:
		dst = appendString(dst, f.To)
		dst, err = appendValue(dst, f.Payload, 0)
	case KindPublish:
		dst = binary.AppendUvarint(dst, f.Seq)
		dst = appendString(dst, f.Topic)
		dst, err = appendValue(dst, f.Payload, 0)
	case KindPubAck:
		dst = binary.AppendUvarint(dst, f.Seq)
		dst = binary.AppendVarint(dst, int64(f.Count))
	case KindSubscribe, KindUnsubscribe:
		dst = appendString(dst, f.Topic)
	case KindDelivery:
		dst, err = appendEnvelope(dst, &f.Env)
	case KindDeregister:
		// kind byte only
	case KindSendMulti:
		dst = binary.AppendUvarint(dst, f.Seq)
		dst = binary.AppendUvarint(dst, uint64(len(f.Targets)))
		for _, t := range f.Targets {
			dst = appendString(dst, t)
		}
		dst, err = appendValue(dst, f.Payload, 0)
	default:
		return dst, fmt.Errorf("wire: cannot encode frame kind %d", f.Kind)
	}
	return dst, err
}

// ParseFrame decodes one binary frame body into f. It never panics:
// malformed input — truncated fields, out-of-range lengths, unknown
// kinds or value tags, over-deep nesting — returns an error, and no
// allocation is sized beyond the input itself.
func ParseFrame(body []byte, f *Frame) error {
	r := &reader{data: body}
	kind, err := r.byte()
	if err != nil {
		return err
	}
	f.Kind = kind
	switch kind {
	case KindHello:
		if f.Name, err = r.str(); err != nil {
			return err
		}
		link, err := r.ivarint()
		if err != nil {
			return err
		}
		f.Link = time.Duration(link)
	case KindSend:
		if f.To, err = r.str(); err != nil {
			return err
		}
		if f.Payload, err = r.value(0); err != nil {
			return err
		}
	case KindPublish:
		if f.Seq, err = r.uvarint(); err != nil {
			return err
		}
		if f.Topic, err = r.str(); err != nil {
			return err
		}
		if f.Payload, err = r.value(0); err != nil {
			return err
		}
	case KindPubAck:
		if f.Seq, err = r.uvarint(); err != nil {
			return err
		}
		count, err := r.ivarint()
		if err != nil {
			return err
		}
		if count < math.MinInt32 || count > math.MaxInt32 {
			return fmt.Errorf("wire: ack count %d out of range", count)
		}
		f.Count = int(count)
	case KindSubscribe, KindUnsubscribe:
		if f.Topic, err = r.str(); err != nil {
			return err
		}
	case KindDelivery:
		if err = r.envelope(&f.Env); err != nil {
			return err
		}
	case KindDeregister:
		// kind byte only
	case KindSendMulti:
		if f.Seq, err = r.uvarint(); err != nil {
			return err
		}
		n, err := r.count()
		if err != nil {
			return err
		}
		f.Targets = make([]string, n)
		for i := range f.Targets {
			if f.Targets[i], err = r.str(); err != nil {
				return err
			}
		}
		if f.Payload, err = r.value(0); err != nil {
			return err
		}
	default:
		return fmt.Errorf("wire: unknown frame kind %d", kind)
	}
	if r.off != len(r.data) {
		return fmt.Errorf("wire: %d trailing bytes after frame", len(r.data)-r.off)
	}
	return nil
}

// --- encode primitives ------------------------------------------------------

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func appendFloat(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendTime(dst []byte, t time.Time) []byte {
	dst = binary.AppendVarint(dst, t.Unix())
	return binary.AppendVarint(dst, int64(t.Nanosecond()))
}

// --- decode primitives ------------------------------------------------------

// reader is a bounds-checked cursor over one frame body.
type reader struct {
	data []byte
	off  int
}

var errTruncated = fmt.Errorf("wire: truncated frame")

func (r *reader) remaining() int { return len(r.data) - r.off }

func (r *reader) byte() (byte, error) {
	if r.off >= len(r.data) {
		return 0, errTruncated
	}
	b := r.data[r.off]
	r.off++
	return b, nil
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		return 0, errTruncated
	}
	r.off += n
	return v, nil
}

func (r *reader) ivarint() (int64, error) {
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		return 0, errTruncated
	}
	r.off += n
	return v, nil
}

// count reads a collection length. Each element costs at least one
// byte on the wire, so a count beyond the remaining input is malformed
// — rejecting it here keeps decode allocations bounded by the input
// size rather than by attacker-chosen headers.
func (r *reader) count() (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(r.remaining()) {
		return 0, fmt.Errorf("wire: collection of %d elements exceeds %d remaining bytes", v, r.remaining())
	}
	return int(v), nil
}

func (r *reader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(r.remaining()) {
		return "", fmt.Errorf("wire: string of %d bytes exceeds %d remaining bytes", n, r.remaining())
	}
	s := string(r.data[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

func (r *reader) bytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.remaining()) {
		return nil, fmt.Errorf("wire: byte string of %d bytes exceeds %d remaining bytes", n, r.remaining())
	}
	b := make([]byte, n)
	copy(b, r.data[r.off:r.off+int(n)])
	r.off += int(n)
	return b, nil
}

func (r *reader) float() (float64, error) {
	if r.remaining() < 8 {
		return 0, errTruncated
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.off:]))
	r.off += 8
	return v, nil
}

func (r *reader) bool() (bool, error) {
	b, err := r.byte()
	if err != nil {
		return false, err
	}
	switch b {
	case 0:
		return false, nil
	case 1:
		return true, nil
	}
	return false, fmt.Errorf("wire: invalid bool byte %d", b)
}

func (r *reader) time() (time.Time, error) {
	sec, err := r.ivarint()
	if err != nil {
		return time.Time{}, err
	}
	nsec, err := r.ivarint()
	if err != nil {
		return time.Time{}, err
	}
	if nsec < 0 || nsec > 999_999_999 {
		return time.Time{}, fmt.Errorf("wire: nanosecond field %d out of range", nsec)
	}
	return time.Unix(sec, nsec), nil
}

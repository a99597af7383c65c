package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
)

// codec is the one walk over a frame's fields that both directions
// run. Encoding (dec false) appends each field to buf; decoding reads
// each field from data at off and stores it through the field pointer.
// The first error sticks and makes every later call a no-op, so a
// layout is a plain list of field calls.
//
// Encoding only reads through the field pointers: several connection
// pumps encode one fanout's shared envelope at the same time, so a
// primitive writes *p only when decoding. Decoding writes into values
// the walk built fresh (ParseFrame zeroes the frame, a job or slice is
// made on decode), so nothing from a reused Frame survives into the
// result.
type codec struct {
	dec  bool
	buf  []byte
	data []byte
	off  int
	err  error
}

var errTruncated = errors.New("wire: truncated frame")

func (c *codec) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("wire: "+format, args...)
	}
}

// decoded reports whether a field the walk just read should be
// checked and stored: the walk is decoding and has not failed.
func (c *codec) decoded() bool { return c.dec && c.err == nil }

func (c *codec) remaining() int { return len(c.data) - c.off }

func (c *codec) u8(p *byte) {
	switch {
	case c.err != nil:
	case !c.dec:
		c.buf = append(c.buf, *p)
	case c.off < len(c.data):
		*p = c.data[c.off]
		c.off++
	default:
		c.err = errTruncated
	}
}

func (c *codec) uvarint(p *uint64) {
	switch {
	case c.err != nil:
	case !c.dec:
		c.buf = binary.AppendUvarint(c.buf, *p)
	default:
		v, n := binary.Uvarint(c.data[c.off:])
		if n <= 0 {
			c.err = errTruncated
			return
		}
		*p, c.off = v, c.off+n
	}
}

func (c *codec) varint(p *int64) {
	switch {
	case c.err != nil:
	case !c.dec:
		c.buf = binary.AppendVarint(c.buf, *p)
	default:
		v, n := binary.Varint(c.data[c.off:])
		if n <= 0 {
			c.err = errTruncated
			return
		}
		*p, c.off = v, c.off+n
	}
}

func (c *codec) dur(p *time.Duration) { c.varint((*int64)(p)) }

// int walks an int as a varint that must lie in [lo, hi]: the int32
// range for counts a 32-bit peer must also hold, the platform's int
// range for an int payload.
func (c *codec) int(p *int, lo, hi int64, what string) {
	v := int64(*p)
	c.varint(&v)
	if !c.decoded() {
		return
	}
	if v < lo || v > hi {
		c.fail("%s %d out of range", what, v)
		return
	}
	*p = int(v)
}

// count walks a collection length: n when encoding, the decoded length
// otherwise. Each element costs at least one byte on the wire, so a
// count beyond the remaining input is malformed — refusing it keeps
// decode allocations bounded by the input size rather than by
// attacker-chosen headers.
func (c *codec) count(n int) int {
	v := uint64(n)
	c.uvarint(&v)
	if c.decoded() && v > uint64(c.remaining()) {
		c.fail("collection of %d elements exceeds %d remaining bytes", v, c.remaining())
	}
	if c.err != nil {
		return 0
	}
	return int(v)
}

// collection walks the length of *s and returns it; decoding a
// non-empty collection makes the slice the caller then fills.
func collection[T any](c *codec, s *[]T) int {
	n := c.count(len(*s))
	if c.dec && n > 0 {
		*s = make([]T, n)
	}
	return n
}

// span reads a length-prefixed run of bytes, no longer than the input
// that remains.
func (c *codec) span(what string) []byte {
	var n uint64
	c.uvarint(&n)
	if c.err != nil {
		return nil
	}
	if n > uint64(c.remaining()) {
		c.fail("%s of %d bytes exceeds %d remaining bytes", what, n, c.remaining())
		return nil
	}
	b := c.data[c.off : c.off+int(n)]
	c.off += int(n)
	return b
}

func (c *codec) str(p *string) {
	switch {
	case c.err != nil:
	case !c.dec:
		c.buf = append(binary.AppendUvarint(c.buf, uint64(len(*p))), *p...)
	default:
		*p = string(c.span("string"))
	}
}

func (c *codec) bytes(p *[]byte) {
	switch {
	case c.err != nil:
	case !c.dec:
		c.buf = append(binary.AppendUvarint(c.buf, uint64(len(*p))), *p...)
	default:
		if b := c.span("byte string"); c.err == nil {
			*p = append(make([]byte, 0, len(b)), b...)
		}
	}
}

func (c *codec) strs(p *[]string) {
	for i, n := 0, collection(c, p); i < n; i++ {
		c.str(&(*p)[i])
	}
}

func (c *codec) f64(p *float64) {
	switch {
	case c.err != nil:
	case !c.dec:
		c.buf = binary.LittleEndian.AppendUint64(c.buf, math.Float64bits(*p))
	case c.remaining() < 8:
		c.err = errTruncated
	default:
		*p = math.Float64frombits(binary.LittleEndian.Uint64(c.data[c.off:]))
		c.off += 8
	}
}

// boolean walks a bool as one byte that must be 0 or 1; what names the
// field in the error for any other byte.
func (c *codec) boolean(p *bool, what string) {
	var b byte
	if *p {
		b = 1
	}
	c.u8(&b)
	if !c.decoded() {
		return
	}
	if b > 1 {
		c.fail("invalid %s byte %d", what, b)
		return
	}
	*p = b == 1
}

// time walks a time as Unix seconds and a nanosecond field in
// [0, 1e9).
func (c *codec) time(p *time.Time) {
	sec, nsec := p.Unix(), int64(p.Nanosecond())
	c.varint(&sec)
	c.varint(&nsec)
	if !c.decoded() {
		return
	}
	if nsec < 0 || nsec > 999_999_999 {
		c.fail("nanosecond field %d out of range", nsec)
		return
	}
	*p = time.Unix(sec, nsec)
}

// frame walks one frame body: the kind byte, then that kind's fields.
func (c *codec) frame(f *Frame) {
	c.u8(&f.Kind)
	switch f.Kind {
	case KindHello:
		c.str(&f.Name)
		c.dur(&f.Link)
	case KindSend:
		c.str(&f.To)
		c.value(&f.Payload, 0)
	case KindPublish:
		c.uvarint(&f.Seq)
		c.str(&f.Topic)
		c.value(&f.Payload, 0)
	case KindPubAck:
		c.uvarint(&f.Seq)
		c.int(&f.Count, math.MinInt32, math.MaxInt32, "ack count")
	case KindSubscribe, KindUnsubscribe:
		c.str(&f.Topic)
	case KindDelivery:
		c.str(&f.Env.From)
		c.str(&f.Env.To)
		c.str(&f.Env.Topic)
		c.time(&f.Env.SentAt)
		c.value(&f.Env.Payload, 0)
	case KindDeregister:
		// kind byte only
	case KindSendMulti:
		c.uvarint(&f.Seq)
		c.strs(&f.Targets)
		c.value(&f.Payload, 0)
	default:
		c.fail("unknown frame kind %d", f.Kind)
	}
}

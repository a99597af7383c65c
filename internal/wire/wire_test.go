package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strings"
	"testing"
	"time"

	"crossflow/internal/broker"
	"crossflow/internal/engine"
)

// roundTrip encodes f, decodes it, re-encodes the decoded frame, and
// requires the two byte strings to be identical and the two frames
// deeply equal — the byte-for-byte survival property the codec promises.
func roundTrip(t *testing.T, f Frame) Frame {
	t.Helper()
	body, err := AppendFrame(nil, &f)
	if err != nil {
		t.Fatalf("AppendFrame: %v", err)
	}
	var got Frame
	if err := ParseFrame(body, &got); err != nil {
		t.Fatalf("ParseFrame: %v", err)
	}
	if !reflect.DeepEqual(f, got) {
		t.Fatalf("round trip mismatch:\n sent %#v\n got  %#v", f, got)
	}
	body2, err := AppendFrame(nil, &got)
	if err != nil {
		t.Fatalf("re-AppendFrame: %v", err)
	}
	if !bytes.Equal(body, body2) {
		t.Fatalf("re-encode differs:\n first  %x\n second %x", body, body2)
	}
	return got
}

func testJob() *engine.Job {
	return &engine.Job{
		ID:         "job-1",
		Stream:     "jobs",
		Payload:    "block-17",
		DataKey:    "hdfs://block-17",
		DataSizeMB: 128.5,
		ComputeMB:  64,
		CostHint:   3 * time.Second,
		Session:    "sess-a",
	}
}

// wireMessages is one representative value per wire-crossing engine
// message kind, with every field populated so a dropped field cannot
// round-trip silently. TestEveryWireMessageHasFixedEncoder checks this
// table against the parsed source of messages.go.
func wireMessages() []any {
	return []any{
		engine.MsgRegister{Worker: "w1"},
		engine.MsgRegisterAck{},
		engine.MsgBidRequest{Job: testJob()},
		engine.MsgBid{JobID: "j1", Worker: "w1", Estimate: 1500 * time.Millisecond, JobCost: 700 * time.Millisecond, Local: true},
		engine.MsgAssign{Job: testJob(), EstimatedCost: 2 * time.Second},
		engine.MsgOffer{Job: testJob()},
		engine.MsgAccept{JobID: "j1", Worker: "w2"},
		engine.MsgReject{JobID: "j1", Worker: "w3"},
		engine.MsgRequestJob{Worker: "w1", CachedKeys: []string{"a", "b"}, Strikes: 2},
		engine.MsgNoWork{Backoff: 250 * time.Millisecond},
		engine.MsgCacheEvict{Worker: "w1", Keys: []string{"k1", "k2"}},
		engine.MsgJobDone{
			JobID:   "j1",
			Worker:  "w1",
			NewJobs: []*engine.Job{testJob(), nil},
			Results: []any{"ok", 42, 3.5, true, []string{"x"}, nil},
			Failed:  true,
			Error:   "boom",
		},
		engine.MsgEmit{Job: testJob(), Worker: "w1"},
		engine.MsgStop{},
		engine.MsgDrain{},
		engine.MsgLeave{Worker: "w9"},
		engine.MsgWorkerDead{Worker: "w9"},
	}
}

// localOnlyMessages are exported Msg kinds that never cross the wire:
// they are produced and consumed inside one process (feeder hooks,
// master self-timers), so the binary codec owes them no field walk.
var localOnlyMessages = map[string]bool{
	"MsgBidWindowExpired": true,
	"MsgTick":             true,
}

// TestEveryWireMessageHasFixedEncoder is the completeness half of the
// round-trip property: parse messages.go, and require every exported
// message kind to either appear in wireMessages (which round-trips
// each through its encoder) or be explicitly listed as local-only. Adding a
// message kind without extending the codec fails here.
func TestEveryWireMessageHasFixedEncoder(t *testing.T) {
	fset := token.NewFileSet()
	parsed, err := parser.ParseFile(fset, "../engine/messages.go", nil, 0)
	if err != nil {
		t.Fatalf("parsing messages.go: %v", err)
	}
	declared := make(map[string]bool)
	for _, decl := range parsed.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok {
				continue
			}
			if strings.HasPrefix(ts.Name.Name, "Msg") {
				declared[ts.Name.Name] = true
			}
		}
	}
	if len(declared) == 0 {
		t.Fatal("no exported message kinds found")
	}
	covered := make(map[string]bool)
	for _, msg := range wireMessages() {
		covered[reflect.TypeOf(msg).Name()] = true
	}
	for name := range declared {
		if localOnlyMessages[name] {
			if covered[name] {
				t.Errorf("%s is listed both local-only and in the wire table", name)
			}
			continue
		}
		if !covered[name] {
			t.Errorf("exported message kind %s has no round-trip coverage (add a field walk to the codec or mark it local-only)", name)
		}
	}
	for name := range covered {
		if !declared[name] {
			t.Errorf("wire table entry %s does not exist in messages.go", name)
		}
	}
}

// requireEveryFieldSet fails unless every exported field of v, a
// struct or a pointer to one, is non-zero: a field left zero in the
// wire table round-trips as zero even when the codec never writes it.
func requireEveryFieldSet(t *testing.T, v any) {
	t.Helper()
	rv := reflect.Indirect(reflect.ValueOf(v))
	for i := 0; i < rv.NumField(); i++ {
		if f := rv.Type().Field(i); f.IsExported() && rv.Field(i).IsZero() {
			t.Errorf("%s.%s is zero in the wire table; give it a value", rv.Type().Name(), f.Name)
		}
	}
}

// TestMsgRoundTripAllMessages sends every wire-crossing message kind
// through a KindSend frame and requires byte-for-byte survival (an
// encoder must exist: there is no fallback).
func TestMsgRoundTripAllMessages(t *testing.T) {
	requireEveryFieldSet(t, testJob())
	for _, msg := range wireMessages() {
		name := reflect.TypeOf(msg).Name()
		t.Run(name, func(t *testing.T) {
			requireEveryFieldSet(t, msg)
			roundTrip(t, Frame{Kind: KindSend, To: "master", Payload: msg})
		})
	}
}

// kindFrames is one frame per frame kind, with that kind's field set
// populated.
func kindFrames() map[string]Frame {
	// The routing fields are set only to show that they stay behind.
	env := broker.Envelope{
		From:    "master",
		To:      "w1",
		Topic:   "xflow.bids",
		Payload: engine.MsgBidRequest{Job: testJob()},
	}
	return map[string]Frame{
		"hello":       {Kind: KindHello, Name: "w1", Link: 5 * time.Millisecond},
		"send":        {Kind: KindSend, To: "master", Payload: engine.MsgBid{JobID: "j", Worker: "w1"}},
		"publish":     {Kind: KindPublish, Seq: 7, Topic: "xflow.bids", Payload: engine.MsgBidRequest{Job: testJob()}},
		"puback":      {Kind: KindPubAck, Seq: 7, Count: 32},
		"puback-neg":  {Kind: KindPubAck, Seq: 8, Count: -1},
		"subscribe":   {Kind: KindSubscribe, Topic: "xflow.control"},
		"unsubscribe": {Kind: KindUnsubscribe, Topic: "xflow.control"},
		"delivery":    {Kind: KindDelivery, Env: env},
		"deregister":  {Kind: KindDeregister},
		"sendmulti":   {Kind: KindSendMulti, Seq: 9, Targets: []string{"w1", "w2", "w3"}, Payload: engine.MsgBidRequest{Job: testJob()}},
	}
}

// TestFrameRoundTripAllKinds exercises every frame kind's field set.
// A delivery carries only its sender and payload: the broker's routing
// fields do not cross the wire.
func TestFrameRoundTripAllKinds(t *testing.T) {
	for name, f := range kindFrames() {
		t.Run(name, func(t *testing.T) {
			if f.Kind != KindDelivery {
				roundTrip(t, f)
				return
			}
			var got Frame
			body, err := AppendFrame(nil, &f)
			if err == nil {
				err = ParseFrame(body, &got)
			}
			if err != nil {
				t.Fatalf("delivery: %v", err)
			}
			requireDeliveryOnWire(t, f.Env, got.Env)
		})
	}
}

// requireDeliveryOnWire checks a decoded delivery envelope against the
// one sent: From and the payload arrive, To and Topic do not.
func requireDeliveryOnWire(t *testing.T, sent, got broker.Envelope) {
	t.Helper()
	if got.From != sent.From || !reflect.DeepEqual(got.Payload, sent.Payload) {
		t.Fatalf("delivery lost its sender or payload:\n sent %#v\n got  %#v", sent, got)
	}
	if got.To != "" || got.Topic != "" {
		t.Fatalf("delivery carried routing fields To=%q Topic=%q", got.To, got.Topic)
	}
}

// TestUnencodablePayloadIsAnError: an application payload type the
// codec has no encoder for fails the encode, naming the type — there is
// no reflective fallback — and the retired embedded-gob tag is refused
// on decode, so a peer's bytes never reach gob.Decode.
type customPayload struct {
	Name  string
	Count int
}

func TestUnencodablePayloadIsAnError(t *testing.T) {
	f := Frame{Kind: KindSend, To: "master", Payload: customPayload{Name: "app", Count: 3}}
	if _, err := AppendFrame(nil, &f); err == nil || !strings.Contains(err.Error(), "wire.customPayload") {
		t.Fatalf("AppendFrame error = %v, want one naming wire.customPayload", err)
	}
	// KindSend, "x", then the retired tag in front of a length-prefixed blob.
	body := []byte{KindSend, 1, 'x', vGob, 3, 1, 2, 3}
	if err := ParseFrame(body, &Frame{}); err == nil || !strings.Contains(err.Error(), "retired") {
		t.Fatalf("ParseFrame error = %v, want the retired-tag refusal", err)
	}
}

// TestStreamRoundTrip pushes a burst of frames through one
// encoder/decoder pair, checking the length-prefixed stream layer and
// that nothing hits the wire before Flush.
func TestStreamRoundTrip(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		var buf bytes.Buffer
		enc := NewEncoder(&buf)
		sent := []Frame{
			{Kind: KindHello, Name: "w1", Link: time.Millisecond},
			{Kind: KindPublish, Seq: 1, Topic: "xflow.bids", Payload: engine.MsgBidRequest{Job: testJob()}},
			{Kind: KindSend, To: "master", Payload: engine.MsgBid{JobID: "j", Worker: "w1", Estimate: time.Second}},
		}
		for _, f := range sent {
			if err := enc.Encode(&f); err != nil {
				t.Fatalf("Encode: %v", err)
			}
		}
		if buf.Len() != 0 {
			t.Fatalf("%d bytes on the wire before Flush", buf.Len())
		}
		if err := enc.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		dec := NewDecoder(bufio.NewReader(&buf))
		for i, want := range sent {
			var got Frame
			if err := dec.Decode(&got); err != nil {
				t.Fatalf("Decode[%d]: %v", i, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("frame %d mismatch:\n sent %#v\n got  %#v", i, want, got)
			}
		}
	})
}

// TestEncodeRawSharedBody checks the fanout path: one AppendFrame body
// written through EncodeRaw on two encoders decodes on both to the
// sender and payload, without the topic it was published on.
func TestEncodeRawSharedBody(t *testing.T) {
	env := broker.Envelope{From: "master", Topic: "xflow.bids", Payload: engine.MsgBidRequest{Job: testJob()}}
	body, err := AppendFrame(nil, &Frame{Kind: KindDelivery, Env: env})
	if err != nil {
		t.Fatalf("AppendFrame: %v", err)
	}
	for i := 0; i < 2; i++ {
		var buf bytes.Buffer
		enc := NewEncoder(&buf)
		if err := enc.EncodeRaw(body); err != nil {
			t.Fatalf("EncodeRaw: %v", err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		var got Frame
		if err := NewDecoder(bufio.NewReader(&buf)).Decode(&got); err != nil {
			t.Fatalf("Decode: %v", err)
		}
		requireDeliveryOnWire(t, env, got.Env)
	}
}

// --- connection header ------------------------------------------------------

// TestNegotiationBinaryClient: a header-bearing connection is accepted
// and the following frames decode.
func TestNegotiationBinaryClient(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHeader(&buf); err != nil {
		t.Fatalf("WriteHeader: %v", err)
	}
	enc := NewEncoder(&buf)
	if err := enc.Encode(&Frame{Kind: KindHello, Name: "w1"}); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	br := bufio.NewReader(&buf)
	if err := ExpectHeader(br); err != nil {
		t.Fatalf("ExpectHeader: %v", err)
	}
	var hello Frame
	if err := NewDecoder(br).Decode(&hello); err != nil {
		t.Fatalf("Decode hello: %v", err)
	}
	if hello.Kind != KindHello || hello.Name != "w1" {
		t.Fatalf("hello = %#v", hello)
	}
}

func TestNegotiationRejectsUnknownVersion(t *testing.T) {
	buf := bytes.NewBuffer([]byte{'X', 'F', 'W', Version + 1, codecIDBinary})
	if err := ExpectHeader(bufio.NewReader(buf)); err == nil {
		t.Fatal("ExpectHeader accepted an unknown protocol version")
	}
	buf = bytes.NewBuffer([]byte{'X', 'F', 'W', Version, 'z'})
	if err := ExpectHeader(bufio.NewReader(buf)); err == nil {
		t.Fatal("ExpectHeader accepted an unknown codec id")
	}
}

// TestExpectHeader: only the exact header opens a connection. Every
// other opening — the previous release's headerless gob stream, a stray
// HTTP client, a peer that hangs up mid-header — is an error, never a
// fallback.
func TestExpectHeader(t *testing.T) {
	var legacy bytes.Buffer
	if err := gob.NewEncoder(&legacy).Encode(&Frame{Kind: KindHello, Name: "old-worker"}); err != nil {
		t.Fatalf("encoding legacy gob hello: %v", err)
	}
	for _, tc := range []struct {
		name    string
		opening []byte
		ok      bool
	}{
		{"header", []byte{'X', 'F', 'W', Version, codecIDBinary}, true},
		{"version 1 header", []byte{'X', 'F', 'W', 1, codecIDBinary}, false},
		{"legacy gob stream", legacy.Bytes(), false},
		{"http request", []byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"), false},
		{"two bytes then EOF", []byte{'X', 'F'}, false},
		{"empty", nil, false},
	} {
		err := ExpectHeader(bufio.NewReader(bytes.NewReader(tc.opening)))
		if (err == nil) != tc.ok {
			t.Errorf("%s: ExpectHeader error = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// --- hostile input ----------------------------------------------------------

func TestDecodeRejectsOversizeFrame(t *testing.T) {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], MaxFrame+1)
	dec := NewDecoder(bufio.NewReader(bytes.NewReader(hdr[:])))
	var f Frame
	if err := dec.Decode(&f); err == nil {
		t.Fatal("Decode accepted a frame beyond MaxFrame")
	}
}

func TestEncodeRejectsUnknownKind(t *testing.T) {
	if _, err := AppendFrame(nil, &Frame{Kind: 200}); err == nil {
		t.Fatal("AppendFrame accepted an unknown kind")
	}
}

func TestParseRejectsTrailingBytes(t *testing.T) {
	body, err := AppendFrame(nil, &Frame{Kind: KindDeregister})
	if err != nil {
		t.Fatalf("AppendFrame: %v", err)
	}
	if err := ParseFrame(append(body, 0xff), &Frame{}); err == nil {
		t.Fatal("ParseFrame accepted trailing bytes")
	}
}

// TestParseBoundsCollectionCounts: a sendmulti header claiming 2^30
// targets in a 16-byte body must be rejected before any allocation.
func TestParseBoundsCollectionCounts(t *testing.T) {
	body := []byte{KindSendMulti}
	body = binary.AppendUvarint(body, 1)       // seq
	body = binary.AppendUvarint(body, 1<<30)   // targets count
	body = append(body, 1, 'x', vNil, 0, 0, 0) // filler
	if err := ParseFrame(body, &Frame{}); err == nil {
		t.Fatal("ParseFrame accepted a collection count beyond the input size")
	}
}

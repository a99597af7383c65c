package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"crossflow/internal/broker"
	"crossflow/internal/engine"
)

// FuzzDecodeFrame feeds arbitrary bytes to the binary frame decoder —
// both as a raw frame body (ParseFrame) and as a length-prefixed stream
// (Decoder) — and requires it to either decode or error: never panic,
// and never allocate beyond the input size (the count/str bounds
// checks). A body that does decode must re-encode and decode again,
// so no reachable Frame state is unencodable.
func FuzzDecodeFrame(f *testing.F) {
	// Valid bodies for every kind seed the interesting paths.
	seedFrames := []Frame{
		{Kind: KindHello, Name: "w1", Link: 5 * time.Millisecond},
		{Kind: KindSend, To: "master", Payload: engine.MsgBid{JobID: "j1", Worker: "w1", Estimate: time.Second, JobCost: time.Second, Local: true}},
		{Kind: KindPublish, Seq: 7, Topic: "xflow.bids", Payload: engine.MsgBidRequest{Job: &engine.Job{ID: "j1", Stream: "jobs", DataKey: "k", DataSizeMB: 1, Payload: "p"}}},
		{Kind: KindPubAck, Seq: 7, Count: 32},
		{Kind: KindSubscribe, Topic: "xflow.control"},
		{Kind: KindUnsubscribe, Topic: "xflow.control"},
		{Kind: KindDelivery, Env: broker.Envelope{From: "master", Topic: "xflow.bids", Payload: engine.MsgStop{}}},
		{Kind: KindDeregister},
		{Kind: KindSendMulti, Seq: 9, Targets: []string{"w1", "w2"}, Payload: engine.MsgJobDone{JobID: "j1", Worker: "w1", Results: []any{"ok", 42, nil}}},
	}
	for i := range seedFrames {
		body, err := AppendFrame(nil, &seedFrames[i])
		if err != nil {
			f.Fatalf("seed %d: %v", i, err)
		}
		f.Add(body)
	}
	// Malformed shapes: truncations, unknown kinds and tags, lying
	// collection counts, oversize string lengths.
	f.Add([]byte{})
	f.Add([]byte{KindHello})
	f.Add([]byte{200})
	f.Add([]byte{KindSend, 1, 'x', 250})
	f.Add(append([]byte{KindSendMulti, 1}, binary.AppendUvarint(nil, 1<<40)...))
	f.Add([]byte{KindSend, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{KindSend, 1, 'x', vGob, 3, 1, 2, 3}) // the retired embedded-gob tag

	f.Fuzz(func(t *testing.T, body []byte) {
		var fr Frame
		if err := ParseFrame(body, &fr); err == nil {
			reencoded, err := AppendFrame(nil, &fr)
			if err != nil {
				t.Fatalf("decoded frame failed to re-encode: %v\nframe: %#v", err, fr)
			}
			var fr2 Frame
			if err := ParseFrame(reencoded, &fr2); err != nil {
				t.Fatalf("re-encoded frame failed to decode: %v", err)
			}
		}
		// The stream layer must hold the same guarantee with the body
		// behind a length prefix.
		var stream []byte
		stream = binary.LittleEndian.AppendUint32(stream, uint32(len(body)))
		stream = append(stream, body...)
		var fr3 Frame
		_ = NewDecoder(bufio.NewReader(bytes.NewReader(stream))).Decode(&fr3)
	})
}

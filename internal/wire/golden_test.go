package wire

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"crossflow/internal/broker"
	"crossflow/internal/engine"
	"crossflow/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/frames.golden from the current encoder")

const goldenPath = "testdata/frames.golden"

type namedFrame struct {
	name  string
	frame Frame
}

// goldenFrames is every frame whose bytes frames.golden pins: each
// wire message as a send, one value of each scalar tag, one frame of
// each kind, and the four hot-path frames the benchmark's wire probe
// times.
func goldenFrames() []namedFrame {
	var out []namedFrame
	send := func(name string, payload any) {
		out = append(out, namedFrame{name, Frame{Kind: KindSend, To: "master", Payload: payload}})
	}
	for _, msg := range wireMessages() {
		send("msg/"+reflect.TypeOf(msg).Name(), msg)
	}
	send("value/nil", nil)
	send("value/job", testJob())
	send("value/string", "block-17")
	send("value/int", -42)
	send("value/int64", int64(1)<<40)
	send("value/float64", 3.25)
	send("value/bool", true)
	send("value/bytes", []byte{0, 1, 0xff})
	send("value/strings", []string{"a", "", "c"})
	send("value/duration", -3*time.Millisecond)

	kinds := kindFrames()
	names := make([]string, 0, len(kinds))
	for name := range kinds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		out = append(out, namedFrame{"kind/" + name, kinds[name]})
	}

	job := &engine.Job{ID: "s123-456", Stream: workload.Stream, DataKey: "hot/03", DataSizeMB: 4, Session: "s123"}
	out = append(out,
		namedFrame{"hot/bidrequest", Frame{Kind: KindDelivery, Env: broker.Envelope{From: engine.MasterName, Topic: engine.TopicBids, Payload: engine.MsgBidRequest{Job: job}}}},
		namedFrame{"hot/bid", Frame{Kind: KindSend, To: engine.MasterName, Payload: engine.MsgBid{JobID: job.ID, Worker: "w003", Estimate: 25 * time.Millisecond, JobCost: 5 * time.Millisecond, Local: true}}},
		namedFrame{"hot/assign", Frame{Kind: KindSend, To: "w003", Payload: engine.MsgAssign{Job: job, EstimatedCost: 5 * time.Millisecond}}},
		namedFrame{"hot/jobdone", Frame{Kind: KindSend, To: engine.MasterName, Payload: engine.MsgJobDone{JobID: job.ID, Worker: "w003", Results: []any{job.ID}}}},
	)
	return out
}

// TestFrameBytesGolden pins the encoding byte for byte: every golden
// frame must encode to exactly the bytes recorded in frames.golden,
// so a codec change that moves a single byte fails here, naming the
// first frame that differs. go test -run TestFrameBytesGolden -update
// rewrites the file.
func TestFrameBytesGolden(t *testing.T) {
	frames := goldenFrames()
	if *update {
		var buf bytes.Buffer
		for _, nf := range frames {
			body, err := AppendFrame(nil, &nf.frame)
			if err != nil {
				t.Fatalf("%s: %v", nf.name, err)
			}
			fmt.Fprintf(&buf, "%s %x\n", nf.name, body)
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := make(map[string]string)
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		name, hexBody, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		want[name] = hexBody
	}
	if len(want) != len(frames) {
		t.Fatalf("%s has %d frames, the test names %d (run with -update after adding a frame)", goldenPath, len(want), len(frames))
	}
	for _, nf := range frames {
		wantHex, ok := want[nf.name]
		if !ok {
			t.Fatalf("frame %s is missing from %s", nf.name, goldenPath)
		}
		body, err := AppendFrame(nil, &nf.frame)
		if err != nil {
			t.Fatalf("frame %s: %v", nf.name, err)
		}
		if got := hex.EncodeToString(body); got != wantHex {
			t.Fatalf("frame %s encodes differently:\n got  %s\n want %s", nf.name, got, wantHex)
		}
	}
}

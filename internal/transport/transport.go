// Package transport carries the broker protocol over TCP, so the master
// and workers can run as separate OS processes against a dedicated
// broker process — the deployment shape of the paper's AWS experiments
// (one instance per worker, one for the master, one for the messaging
// infrastructure).
//
// The frame-level encoding lives in internal/wire: length-prefixed
// binary frames with fixed per-message encoders, behind a versioned
// connection header both ends open with. Clients follow the header
// with a hello frame naming their endpoint; afterwards they exchange
// sends, publishes, subscriptions and deliveries. Publish is
// acknowledged with the subscriber count so the bidding master knows
// how many bids to expect, exactly as the in-process broker reports it.
//
// Three throughput mechanisms sit on top of the encoding. Writers are
// buffered, and ack-bearing frames (publish, multicast, hello,
// deregister) always flush immediately so request latency never waits
// on batching; fire-and-forget frames batch adaptively — a send issued
// while more deliveries wait in the inbox (a worker mid-way through
// answering a batch of bid requests) skips its flush and rides along
// with the burst's last reply, which sees an empty inbox and flushes
// inline. The server's delivery pump drains each endpoint's mailbox
// before flushing, batching fan-out deliveries without adding any
// latency. And a fanned-out envelope (topic publish, targeted
// multicast) is encoded once and the same bytes written to every
// subscriber connection.
package transport

import (
	"bufio"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"crossflow/internal/broker"
	"crossflow/internal/engine"
	"crossflow/internal/vclock"
	"crossflow/internal/wire"
)

// DefaultAckTimeout bounds how long a publish or multicast waits for the
// server's reached-count acknowledgement before giving up with 0.
const DefaultAckTimeout = 10 * time.Second

// Options tunes a client connection. The zero value is the deployment
// default: 10s ack timeout, adaptive flushing.
type Options struct {
	// Codec selects nothing: there is one wire encoding. The field
	// survives only because the frozen benchmark module sets it; it
	// accepts "" and "binary", anything else is a Dial error, and it is
	// removed with the next benchmark PR.
	Codec string

	// AckTimeout bounds the wait for publish/multicast acks; 0 means
	// DefaultAckTimeout. Tests shorten it to keep failure paths fast.
	AckTimeout time.Duration

	// FlushWindow, when positive, delays the flush of every
	// fire-and-forget frame (sends, subscriptions) by up to this long so
	// bursts batch into one write. Zero selects adaptive flushing: a
	// frame flushes inline when the inbox is idle and defers (bounded by
	// a short safety timer) when more deliveries are queued behind it.
	// Ack-bearing frames always flush immediately, so publish latency
	// never regresses. The window is wall-clock time: leave it zero
	// under compressed-clock tests, where a microsecond of real delay is
	// milliseconds of simulated time.
	FlushWindow time.Duration
}

func (o Options) ackTimeout() time.Duration {
	if o.AckTimeout > 0 {
		return o.AckTimeout
	}
	return DefaultAckTimeout
}

// Register makes a payload type encodable on the wire; applications call
// it for their own job payload and result types (gob.Register rules
// apply — unknown payload types travel as embedded gob values).
func Register(v any) { wire.Register(v) }

// WireStats counts raw connection traffic on a server, hello headers and
// length prefixes included. The wire benchmark divides deltas by jobs
// completed to report bytes/job.
type WireStats struct {
	BytesIn  uint64
	BytesOut uint64
}

// encCacheMax bounds the shared-envelope encode cache. Entries are tiny
// (one encoded frame body each) and the cache is cleared wholesale when
// full; fanouts of one envelope land within the same delivery wave, so
// wholesale clearing almost never evicts a live entry.
const encCacheMax = 1024

// Server hosts a broker and serves remote endpoints.
type Server struct {
	bus *broker.Broker
	ln  net.Listener

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]bool

	bytesIn  atomic.Uint64
	bytesOut atomic.Uint64

	// cacheMu guards encCache, the per-envelope encoded-body cache that
	// lets a fanout encode once and write the same bytes to every
	// subscriber connection.
	cacheMu  sync.Mutex
	encCache map[*broker.Envelope][]byte
}

// Serve starts a broker server on addr (e.g. ":7070"). The broker runs
// on a real-time clock; per-endpoint link latencies declared in hello
// frames are honoured on top of actual network latency.
func Serve(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		bus:      broker.New(vclock.NewReal()),
		ln:       ln,
		conns:    make(map[net.Conn]bool),
		encCache: make(map[*broker.Envelope][]byte),
	}
	// The TCP links in front of this bus already provide propagation
	// nondeterminism; the simulated route skew would only put a wall
	// timer on every delivery.
	s.bus.SetDirectDelivery(true)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// WireStats returns cumulative bytes read from and written to all
// client connections.
func (s *Server) WireStats() WireStats {
	return WireStats{BytesIn: s.bytesIn.Load(), BytesOut: s.bytesOut.Load()}
}

// Close stops the server and drops all connections.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		_ = c.Close() // best-effort teardown
	}
	return s.ln.Close()
}

func (s *Server) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// countingConn tallies raw bytes into the server's wire counters.
type countingConn struct {
	net.Conn
	in, out *atomic.Uint64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(uint64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(uint64(n))
	return n, err
}

// deliveryBody returns the encoded frame body for a delivery,
// sharing the encoding across connections when the envelope itself is
// shared (fanouts leave To empty; direct sends carry a unique envelope
// and skip the cache).
func (s *Server) deliveryBody(env *broker.Envelope) ([]byte, error) {
	if env.To != "" {
		return wire.AppendFrame(nil, &wire.Frame{Kind: wire.KindDelivery, Env: *env})
	}
	s.cacheMu.Lock()
	body, ok := s.encCache[env]
	s.cacheMu.Unlock()
	if ok {
		return body, nil
	}
	body, err := wire.AppendFrame(nil, &wire.Frame{Kind: wire.KindDelivery, Env: *env})
	if err != nil {
		return nil, err
	}
	s.cacheMu.Lock()
	if len(s.encCache) >= encCacheMax {
		clear(s.encCache)
	}
	s.encCache[env] = body
	s.cacheMu.Unlock()
	return body, nil
}

func (s *Server) handle(conn net.Conn) {
	defer func() {
		_ = conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	cc := countingConn{Conn: conn, in: &s.bytesIn, out: &s.bytesOut}
	br := bufio.NewReaderSize(cc, 32<<10)
	if err := wire.ExpectHeader(br); err != nil {
		// Not a peer of this protocol (a pre-header gob client, a stray
		// HTTP request): refuse it rather than misparse its bytes.
		log.Printf("transport: refusing connection from %s: %v", conn.RemoteAddr(), err)
		return
	}
	// Echo the header before any frame so the client's verification
	// completes without waiting on server traffic.
	if err := wire.WriteHeader(cc); err != nil {
		return
	}
	enc := wire.NewEncoder(cc)
	dec := wire.NewDecoder(br)
	var encMu sync.Mutex

	var hello wire.Frame
	if err := dec.Decode(&hello); err != nil || hello.Kind != wire.KindHello || hello.Name == "" {
		return
	}
	ep, ok := s.bus.Lookup(hello.Name)
	if ok {
		// Reconnect of a known endpoint name: resume delivery.
		ep.Reconnect()
	} else {
		ep = s.bus.Register(hello.Name, hello.Link)
	}

	// writeDelivery encodes one delivery; a shared envelope is encoded
	// once and its bytes reused on every connection. A payload that
	// cannot be encoded drops that delivery — the at-most-once
	// discipline.
	writeDelivery := func(v any) bool {
		env, ok := v.(*broker.Envelope)
		if !ok {
			return true
		}
		encMu.Lock()
		defer encMu.Unlock()
		body, err := s.deliveryBody(env)
		if err != nil {
			return true
		}
		return enc.EncodeRaw(body) == nil
	}
	flush := func() bool {
		encMu.Lock()
		defer encMu.Unlock()
		return enc.Flush() == nil
	}

	// Pump deliveries to the client, draining the mailbox before each
	// flush so a fan-out wave goes down the socket as a handful of
	// writes instead of one per frame.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			v, ok := ep.Inbox().Recv()
			if !ok {
				return
			}
			if !writeDelivery(v) {
				return
			}
			for {
				v2, ok2 := ep.Inbox().TryRecv()
				if !ok2 {
					break
				}
				if !writeDelivery(v2) {
					return
				}
				encMu.Lock()
				full := enc.Buffered() >= 32<<10
				encMu.Unlock()
				if full && !flush() {
					return
				}
			}
			if !flush() {
				return
			}
		}
	}()

	writeAck := func(seq uint64, count int) bool {
		encMu.Lock()
		defer encMu.Unlock()
		if err := enc.Encode(&wire.Frame{Kind: wire.KindPubAck, Seq: seq, Count: count}); err != nil {
			return false
		}
		// Acks flush immediately: the client is blocked (or holding a
		// pipelined future) on this count.
		return enc.Flush() == nil
	}

	for {
		var f wire.Frame
		if err := dec.Decode(&f); err != nil {
			ep.Disconnect()
			return
		}
		switch f.Kind {
		case wire.KindSend:
			ep.Send(f.To, f.Payload)
		case wire.KindPublish:
			n := ep.Publish(f.Topic, f.Payload)
			if !writeAck(f.Seq, n) {
				ep.Disconnect()
				return
			}
		case wire.KindSendMulti:
			n := ep.SendMulti(f.Targets, f.Payload)
			if !writeAck(f.Seq, n) {
				ep.Disconnect()
				return
			}
		case wire.KindSubscribe:
			ep.Subscribe(f.Topic)
		case wire.KindUnsubscribe:
			ep.Unsubscribe(f.Topic)
		case wire.KindDeregister:
			// Graceful leave: free the endpoint name for future joiners
			// instead of parking it disconnected.
			ep.Inbox().Close()
			ep.Deregister()
			return
		}
	}
}

// Client is a remote endpoint: it implements engine.Port over a TCP
// connection to a Server.
type Client struct {
	name        string
	conn        net.Conn
	inbox       vclock.Mailbox
	ackTimeout  time.Duration
	flushWindow time.Duration

	mu           sync.Mutex
	enc          *wire.Encoder
	seq          uint64
	acks         map[uint64]chan int
	closed       bool
	flushPending bool
}

// Dial connects to a broker server with default Options and registers
// the named endpoint. The inbox is created on clk, so the engine's
// mailbox discipline is preserved; clk is typically a real-time clock
// in deployments.
func Dial(addr, name string, link time.Duration, clk vclock.Clock) (*Client, error) {
	return DialOptions(addr, name, link, clk, Options{})
}

// DialOptions is Dial with explicit connection options.
func DialOptions(addr, name string, link time.Duration, clk vclock.Clock, opts Options) (*Client, error) {
	if opts.Codec != "" && opts.Codec != "binary" {
		return nil, fmt.Errorf("transport: unknown codec %q", opts.Codec)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		name:        name,
		conn:        conn,
		inbox:       clk.NewMailbox("inbox:" + name),
		ackTimeout:  opts.ackTimeout(),
		flushWindow: opts.FlushWindow,
		enc:         wire.NewEncoder(conn),
		acks:        make(map[uint64]chan int),
	}
	if err := wire.WriteHeader(conn); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("transport: header: %w", err)
	}
	if err := c.encode(&wire.Frame{Kind: wire.KindHello, Name: name, Link: link}, true); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("transport: hello: %w", err)
	}
	br := bufio.NewReaderSize(conn, 32<<10)
	// The server must echo the header before its first frame; a peer
	// that doesn't is not a broker of this protocol — fail loudly at
	// connect instead of corrupting a stream.
	if err := wire.ExpectHeader(br); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("transport: %w", err)
	}
	go c.recvLoop(wire.NewDecoder(br))
	return c, nil
}

// defaultSafetyFlush bounds how long a deferred frame may sit in the
// write buffer when adaptive batching skipped its flush and no later
// write came along to carry it out.
const defaultSafetyFlush = 200 * time.Microsecond

// encode writes one frame. Urgent (ack-bearing) frames always flush
// inline. For the rest the client batches adaptively: a frame written
// while deliveries are still queued in the inbox is one of a burst of
// replies — the next reply is moments away, so the flush is skipped and
// the bytes ride along with it. The last reply of a burst sees an empty
// inbox and flushes inline, keeping request/reply latency at zero; the
// safety timer covers bursts whose remaining deliveries produce no
// further writes. A positive FlushWindow disables the inline path and
// defers every non-urgent flush by that window.
func (c *Client) encode(f *wire.Frame, urgent bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("transport: client closed")
	}
	if err := c.enc.Encode(f); err != nil {
		return err
	}
	if urgent || (c.flushWindow <= 0 && c.inbox.Len() == 0) {
		return c.enc.Flush()
	}
	c.scheduleFlushLocked()
	return nil
}

// scheduleFlushLocked arms the delayed flush if it isn't already armed.
// Callers hold c.mu. The timer runs on wall clock: this file is real
// deployment plumbing, not simulation (see Options.FlushWindow).
func (c *Client) scheduleFlushLocked() {
	if c.flushPending {
		return
	}
	c.flushPending = true
	w := c.flushWindow
	if w <= 0 {
		w = defaultSafetyFlush
	}
	time.AfterFunc(w, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.flushPending = false
		if c.closed {
			return
		}
		_ = c.enc.Flush()
	})
}

// ackFuture writes an ack-bearing frame (publish or multicast) and
// returns a function that waits for the server's reached count. The
// frame flushes immediately — the peer cannot ack bytes still sitting
// in our buffer — and a failed encode removes its ack entry before
// returning, so the map cannot leak dead channels.
func (c *Client) ackFuture(f *wire.Frame) func() int {
	zero := func() int { return 0 }
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return zero
	}
	c.seq++
	seq := c.seq
	ch := make(chan int, 1)
	c.acks[seq] = ch
	f.Seq = seq
	err := c.enc.Encode(f)
	if err == nil {
		err = c.enc.Flush()
	}
	if err != nil {
		delete(c.acks, seq)
		c.mu.Unlock()
		return zero
	}
	c.mu.Unlock()
	timeout := c.ackTimeout
	return func() int {
		select {
		case n, ok := <-ch:
			if !ok {
				return 0 // client closed while waiting
			}
			return n
		case <-time.After(timeout):
			c.mu.Lock()
			delete(c.acks, seq)
			c.mu.Unlock()
			return 0
		}
	}
}

func (c *Client) recvLoop(dec *wire.Decoder) {
	for {
		var f wire.Frame
		if err := dec.Decode(&f); err != nil {
			_ = c.Close()
			return
		}
		switch f.Kind {
		case wire.KindDelivery:
			env := f.Env
			c.inbox.Send(&env)
		case wire.KindPubAck:
			c.mu.Lock()
			ch := c.acks[f.Seq]
			delete(c.acks, f.Seq)
			c.mu.Unlock()
			if ch != nil {
				ch <- f.Count
			}
		}
	}
}

// Close tears the connection down and closes the inbox.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	for seq, ch := range c.acks {
		close(ch)
		delete(c.acks, seq)
	}
	c.mu.Unlock()
	c.inbox.Close()
	return c.conn.Close()
}

// Name implements engine.Port.
func (c *Client) Name() string { return c.name }

// Inbox implements engine.Port.
func (c *Client) Inbox() vclock.Mailbox { return c.inbox }

// Send implements engine.Port. Delivery is asynchronous; false means the
// local connection is already closed.
func (c *Client) Send(to string, payload any) bool {
	return c.encode(&wire.Frame{Kind: wire.KindSend, To: to, Payload: payload}, false) == nil
}

// Publish implements engine.Port: it blocks for the server's subscriber
// count (the bidding master sizes contests with it).
func (c *Client) Publish(topic string, payload any) int {
	return c.ackFuture(&wire.Frame{Kind: wire.KindPublish, Topic: topic, Payload: payload})()
}

// PublishAsync publishes without blocking and returns a future for the
// subscriber count. The engine's bidding master uses it to pipeline
// contest rounds: the bid request is on the wire immediately, bids can
// start arriving, and the reached count lands when the ack does.
func (c *Client) PublishAsync(topic string, payload any) func() int {
	return c.ackFuture(&wire.Frame{Kind: wire.KindPublish, Topic: topic, Payload: payload})
}

// SendMulti implements the engine's targeted-multicast capability over
// the wire: one frame up, one shared envelope fanned out server-side,
// the reached count acked back like a publish.
func (c *Client) SendMulti(targets []string, payload any) int {
	return c.ackFuture(&wire.Frame{Kind: wire.KindSendMulti, Targets: targets, Payload: payload})()
}

// Subscribe implements engine.Port. An encode failure means the
// connection is already broken; recvLoop closes the client, so the
// error carries no extra information here.
func (c *Client) Subscribe(topic string) {
	_ = c.encode(&wire.Frame{Kind: wire.KindSubscribe, Topic: topic}, false)
}

// Unsubscribe stops topic deliveries.
func (c *Client) Unsubscribe(topic string) {
	_ = c.encode(&wire.Frame{Kind: wire.KindUnsubscribe, Topic: topic}, false)
}

// Deregister frees the endpoint name on the broker (the graceful-leave
// half of the engine's drain protocol) and tears the connection down.
func (c *Client) Deregister() {
	_ = c.encode(&wire.Frame{Kind: wire.KindDeregister}, true)
	_ = c.Close()
}

// Interface checks.
var _ engine.Port = (*Client)(nil)

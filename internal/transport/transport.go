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
// sends, publishes, subscriptions and deliveries. Publish and multicast
// are acknowledged with the reached count, as the in-process broker
// reports it. The master waits for neither ack: a contest expects the
// master's live set.
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
	"cmp"
	"errors"
	"fmt"
	"log"
	"net"
	"sort"
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
// default: 10s ack timeout.
type Options struct {
	// Codec selects nothing: there is one wire encoding. The field
	// survives only because the frozen benchmark module sets it; it
	// accepts "" and "binary", anything else is a Dial error, and it is
	// removed with the next benchmark PR.
	Codec string

	// AckTimeout bounds the wait for publish/multicast acks; 0 means
	// DefaultAckTimeout. Tests shorten it to keep failure paths fast.
	AckTimeout time.Duration
}

// WireStats counts raw connection traffic on a server, hello headers and
// length prefixes included. The repository benchmark's tcp_* workloads
// divide deltas by jobs completed to report wire_bytes_per_job.
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
	// seats holds one entry per registered endpoint name; claim and
	// release change a seat's owner only under mu.
	seats map[string]*seat

	bytesIn  atomic.Uint64
	bytesOut atomic.Uint64

	// cacheMu guards encCache, the per-envelope encoded-body cache that
	// lets a fanout encode once and write the same bytes to every
	// subscriber connection.
	cacheMu  sync.Mutex
	encCache map[*broker.Envelope][]byte
}

// seat is one endpoint name on the server: the broker endpoint, whose
// inbox a single delivery pump drains for as long as the name stays
// registered, and the connection that currently owns it. The newest
// connection to say hello for a name is the owner; nil means the
// endpoint is parked disconnected.
type seat struct {
	ep    *broker.Endpoint
	owner atomic.Pointer[peer]
}

// peer is the write half of one client connection, shared by the
// connection's read loop (acks) and its seat's delivery pump.
type peer struct {
	conn net.Conn
	mu   sync.Mutex
	enc  *wire.Encoder
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
		seats:    make(map[string]*seat),
		encCache: make(map[*broker.Envelope][]byte),
	}
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

// Close stops the server, drops all connections, and closes every
// endpoint inbox so the delivery pumps exit.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	for _, st := range s.seats {
		st.ep.Inbox().Close()
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

// claim makes p the owner of name's seat, registering the endpoint and
// starting its delivery pump on first contact. Taking over from a
// connection that is still up closes it: its read loop then exits as a
// non-owner and leaves the endpoint alone.
func (s *Server) claim(name string, link time.Duration, p *peer) *seat {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.seats[name]
	if st == nil {
		// Owned before it is reachable: the pump drops what it finds
		// while a seat has no owner.
		st = &seat{}
		st.owner.Store(p)
		st.ep = s.bus.Register(name, link)
		s.seats[name] = st
		if s.closed {
			st.ep.Inbox().Close() // a hello that raced Close: its pump exits at once
		}
		go s.pump(st)
		return st
	}
	if old := st.owner.Swap(p); old != nil {
		_ = old.conn.Close()
	}
	st.ep.Reconnect()
	return st
}

// release ends p's ownership of st when its connection is done: the
// endpoint is parked disconnected, or on a graceful leave its name is
// freed for future joiners. A connection that was taken over owns
// nothing any more, so its exit changes nothing.
func (s *Server) release(st *seat, p *peer, deregister bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !st.owner.CompareAndSwap(p, nil) {
		return
	}
	if !deregister {
		st.ep.Disconnect()
		return
	}
	delete(s.seats, st.ep.Name())
	st.ep.Inbox().Close()
	st.ep.Deregister()
}

// pump writes st's deliveries to whichever connection owns the seat,
// draining the mailbox before each flush so a fan-out wave goes down
// the socket as a handful of writes instead of one per frame. It runs
// until the inbox closes (deregistration or server shutdown). What
// arrives while no connection owns the seat is lost, and a payload that
// cannot be encoded drops that delivery — the at-most-once discipline.
func (s *Server) pump(st *seat) {
	inbox := st.ep.Inbox()
	write := func(p *peer, v any) bool {
		env, ok := v.(*broker.Envelope)
		if !ok {
			return true
		}
		body, err := s.deliveryBody(env)
		if err != nil {
			return true
		}
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.enc.EncodeRaw(body) == nil
	}
	// The encoder's buffer flushes itself when a long wave fills it.
	wave := func(p *peer, v any) bool {
		for more := true; more; v, more = inbox.TryRecv() {
			if !write(p, v) {
				return false
			}
		}
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.enc.Flush() == nil
	}
	for {
		v, ok := inbox.Recv()
		if !ok {
			return
		}
		if p := st.owner.Load(); p != nil && !wave(p, v) {
			_ = p.conn.Close() // its read loop notices and releases the seat
		}
	}
}

// ack answers a publish or multicast with its reached count. Acks flush
// immediately: the client is blocked (or holding a pipelined future) on
// this count.
func (p *peer) ack(seq uint64, count int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.enc.Encode(&wire.Frame{Kind: wire.KindPubAck, Seq: seq, Count: count}); err != nil {
		return false
	}
	return p.enc.Flush() == nil
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
	dec := wire.NewDecoder(br)
	var hello wire.Frame
	if err := dec.Decode(&hello); err != nil || hello.Kind != wire.KindHello || hello.Name == "" {
		return
	}
	p := &peer{conn: conn, enc: wire.NewEncoder(cc)}
	st := s.claim(hello.Name, hello.Link, p)
	// A graceful leave frees the name; any other exit parks it.
	deregister := false
	defer func() { s.release(st, p, deregister) }()
	ep := st.ep
	for {
		var f wire.Frame
		if err := dec.Decode(&f); err != nil {
			return
		}
		switch f.Kind {
		case wire.KindSend:
			ep.Send(f.To, f.Payload)
		case wire.KindPublish:
			if !p.ack(f.Seq, ep.Publish(f.Topic, f.Payload)) {
				return
			}
		case wire.KindSendMulti:
			if !p.ack(f.Seq, ep.SendMulti(f.Targets, f.Payload)) {
				return
			}
		case wire.KindSubscribe:
			ep.Subscribe(f.Topic)
		case wire.KindUnsubscribe:
			ep.Unsubscribe(f.Topic)
		case wire.KindDeregister:
			deregister = true
			return
		}
	}
}

// Client is a remote endpoint: it implements engine.Port over a TCP
// connection to a Server. Its inbox belongs to the client, not to the
// connection, so a client dialed with DialAuto rides out a dropped
// connection or a broker restart: deliveries pause, the client redials
// with capped exponential backoff, replays its subscriptions, and the
// engine's comms loop sees only a burst of lost messages — the failure
// model the master's retry paths already cover. A client from Dial or
// DialOptions closes, inbox included, when its connection drops.
type Client struct {
	name       string
	addr       string
	link       time.Duration
	inbox      vclock.Mailbox
	ackTimeout time.Duration
	redial     bool

	mu   sync.Mutex
	conn net.Conn
	// enc is nil while a redialing client is between connections; writes
	// then fail like writes on a closed client.
	enc          *wire.Encoder
	seq          uint64
	acks         map[uint64]chan int
	closed       bool
	flushPending bool
	topics       map[string]bool
	onReconnect  func(*Client)
	reconnects   int
}

// Backoff bounds for DialAuto's redial loop.
const (
	reconnectInitialBackoff = 100 * time.Millisecond
	reconnectMaxBackoff     = 5 * time.Second
)

var errClosed = errors.New("transport: client closed")

// Dial connects to a broker server with default Options and registers
// the named endpoint. The inbox is created on clk, so the engine's
// mailbox discipline is preserved; clk is typically a real-time clock
// in deployments.
func Dial(addr, name string, link time.Duration, clk vclock.Clock) (*Client, error) {
	return DialOptions(addr, name, link, clk, Options{})
}

// DialAuto is Dial for long-lived nodes: the initial dial must succeed,
// and every later connection loss starts the redial loop instead of
// closing the client.
func DialAuto(addr, name string, link time.Duration, clk vclock.Clock) (*Client, error) {
	return dial(addr, name, link, clk, Options{}, true)
}

// DialOptions is Dial with explicit connection options.
func DialOptions(addr, name string, link time.Duration, clk vclock.Clock, opts Options) (*Client, error) {
	return dial(addr, name, link, clk, opts, false)
}

func dial(addr, name string, link time.Duration, clk vclock.Clock, opts Options, redial bool) (*Client, error) {
	if opts.Codec != "" && opts.Codec != "binary" {
		return nil, fmt.Errorf("transport: unknown codec %q", opts.Codec)
	}
	c := &Client{
		name:       name,
		addr:       addr,
		link:       link,
		inbox:      clk.NewMailbox("inbox:" + name),
		ackTimeout: cmp.Or(opts.AckTimeout, DefaultAckTimeout),
		redial:     redial,
		acks:       make(map[uint64]chan int),
		topics:     make(map[string]bool),
	}
	dec, err := c.connect()
	if err != nil {
		return nil, err
	}
	go c.recvLoop(dec)
	return c, nil
}

// connect dials the server, completes the header and hello exchange,
// and installs the connection as the client's current one.
func (c *Client) connect() (*wire.Decoder, error) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		// No hello after Close: it would re-register a name that
		// Deregister just freed.
		return nil, errClosed
	}
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		return nil, err
	}
	enc := wire.NewEncoder(conn)
	if err := wire.WriteHeader(conn); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("transport: header: %w", err)
	}
	err = enc.Encode(&wire.Frame{Kind: wire.KindHello, Name: c.name, Link: c.link})
	if err == nil {
		err = enc.Flush()
	}
	if err != nil {
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
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		_ = conn.Close()
		return nil, errClosed
	}
	c.conn, c.enc = conn, enc
	return wire.NewDecoder(br), nil
}

// SetOnReconnect installs a hook run after every successful redial,
// once subscriptions have been replayed. A worker uses it to re-send
// MsgRegister (the master idempotently re-acks known names). Set it
// before the first drop can happen.
func (c *Client) SetOnReconnect(f func(*Client)) {
	c.mu.Lock()
	c.onReconnect = f
	c.mu.Unlock()
}

// Reconnects reports how many times the client has redialed.
func (c *Client) Reconnects() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reconnects
}

// safetyFlush bounds how long a deferred frame may sit in the write
// buffer when adaptive batching skipped its flush and no later write
// came along to carry it out. 200 µs is what the timer asks for; an
// otherwise idle process fires it at the runtime's timer floor of about
// a millisecond (vclock's timerFloor), and even a busy one was measured
// firing it 0.6–0.8 ms after arming on average (2-core host).
const safetyFlush = 200 * time.Microsecond

// encode writes one frame. Urgent (ack-bearing) frames always flush
// inline. For the rest the client batches adaptively: a frame written
// while deliveries are still queued in the inbox is one of a burst of
// replies — the next reply is moments away, so the flush is skipped and
// the bytes ride along with it. The last reply of a burst sees an empty
// inbox and flushes inline, keeping request/reply latency at zero; the
// safety timer covers bursts whose remaining deliveries produce no
// further writes.
func (c *Client) encode(f *wire.Frame, urgent bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.enc == nil {
		return errClosed
	}
	if err := c.enc.Encode(f); err != nil {
		return err
	}
	if urgent || c.inbox.Len() == 0 {
		return c.enc.Flush()
	}
	if !c.flushPending {
		c.flushPending = true
		// Wall clock: this is deployment plumbing, not simulation.
		time.AfterFunc(safetyFlush, c.flushDeferred)
	}
	return nil
}

func (c *Client) flushDeferred() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.flushPending = false
	if !c.closed && c.enc != nil {
		_ = c.enc.Flush() // a dead connection surfaces in recvLoop
	}
}

// ackFuture writes an ack-bearing frame (publish or multicast) and
// returns a function that waits for the server's reached count. The
// frame flushes immediately — the peer cannot ack bytes still sitting
// in our buffer — and a failed encode removes its ack entry before
// returning, so the map cannot leak dead channels.
func (c *Client) ackFuture(f *wire.Frame) func() int {
	zero := func() int { return 0 }
	c.mu.Lock()
	if c.closed || c.enc == nil {
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
		// Stopped on the ack path: under go.mod's pre-1.23 timer
		// semantics an abandoned timer stays in the runtime heap until it
		// fires, ten seconds of publishes at a time.
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		select {
		case n := <-ch:
			return n // 0 from a closed channel: the connection dropped
		case <-timer.C:
			c.mu.Lock()
			delete(c.acks, seq)
			c.mu.Unlock()
			return 0
		}
	}
}

// recvLoop reads one connection until it fails.
func (c *Client) recvLoop(dec *wire.Decoder) {
	for {
		var f wire.Frame
		if err := dec.Decode(&f); err != nil {
			c.connLost()
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

// connLost runs on the goroutine whose connection just failed. A plain
// client closes. A redialing one fails the acks in flight, dials until
// it is connected again or closed, hands the new connection to a fresh
// recvLoop, and then replays subscriptions (in sorted order) and runs
// the reconnect hook. Sends during the outage are dropped — the same
// at-most-once discipline as every other path in the system.
func (c *Client) connLost() {
	if !c.redial {
		_ = c.Close()
		return
	}
	c.mu.Lock()
	_ = c.conn.Close()
	c.enc = nil
	c.failAcksLocked()
	c.mu.Unlock()
	for backoff := reconnectInitialBackoff; ; backoff = min(2*backoff, reconnectMaxBackoff) {
		dec, err := c.connect()
		if err == nil {
			go c.recvLoop(dec)
			break
		}
		if errors.Is(err, errClosed) {
			return
		}
		time.Sleep(backoff) // wall clock by design: this exists only in real deployments
	}
	c.mu.Lock()
	c.reconnects++
	topics := make([]string, 0, len(c.topics))
	for t := range c.topics {
		topics = append(topics, t)
	}
	hook := c.onReconnect
	c.mu.Unlock()
	sort.Strings(topics)
	for _, t := range topics {
		_ = c.encode(&wire.Frame{Kind: wire.KindSubscribe, Topic: t}, false)
	}
	if hook != nil {
		hook(c)
	}
}

// failAcksLocked wakes every publish or multicast still waiting for its
// ack with a count of 0. Callers hold c.mu.
func (c *Client) failAcksLocked() {
	for seq, ch := range c.acks {
		close(ch)
		delete(c.acks, seq)
	}
}

// Close tears the client down for good: the inbox closes and a
// redialing client stops redialing.
func (c *Client) Close() error { return c.shutdown(nil) }

// shutdown closes the client, first sending farewell if there is one.
// The frame goes out under the same lock hold that marks the client
// closed: the server answers a deregister by closing the connection,
// and a redialing client must already know that drop is its own doing.
func (c *Client) shutdown(farewell *wire.Frame) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	if farewell != nil && c.enc != nil && c.enc.Encode(farewell) == nil {
		_ = c.enc.Flush() // best effort: the name is parked, not freed, if this fails
	}
	c.failAcksLocked()
	conn := c.conn
	c.mu.Unlock()
	c.inbox.Close()
	return conn.Close()
}

// Name implements engine.Port.
func (c *Client) Name() string { return c.name }

// Inbox implements engine.Port.
func (c *Client) Inbox() vclock.Mailbox { return c.inbox }

// Send implements engine.Port. Delivery is asynchronous; false means the
// client is closed or between connections.
func (c *Client) Send(to string, payload any) bool {
	return c.encode(&wire.Frame{Kind: wire.KindSend, To: to, Payload: payload}, false) == nil
}

// Publish implements engine.Port: it blocks for the server's subscriber
// count. The master does not call it (see PublishAsync); the frozen
// benchmark module's probes do, and wait on the count.
func (c *Client) Publish(topic string, payload any) int {
	return c.ackFuture(&wire.Frame{Kind: wire.KindPublish, Topic: topic, Payload: payload})()
}

// PublishAsync publishes without blocking and returns a future for the
// subscriber count. The master publishes bid requests with it and drops
// the future; only the frozen benchmark module's probes await it. The
// ack and both futures can go when the benchmark is next changed.
func (c *Client) PublishAsync(topic string, payload any) func() int {
	return c.ackFuture(&wire.Frame{Kind: wire.KindPublish, Topic: topic, Payload: payload})
}

// SendMulti implements the engine's targeted-multicast capability over
// the wire: one frame up, one shared envelope fanned out server-side,
// the reached count acked back like a publish. It blocks for the count;
// the master does not call it (see SendMultiAsync), the frozen
// benchmark module's probes do.
func (c *Client) SendMulti(targets []string, payload any) int {
	return c.SendMultiAsync(targets, payload)()
}

// SendMultiAsync multicasts without blocking and returns a future for
// the reached count. The master opens targeted contests with it and
// drops the future, as it does PublishAsync's.
func (c *Client) SendMultiAsync(targets []string, payload any) func() int {
	return c.ackFuture(&wire.Frame{Kind: wire.KindSendMulti, Targets: targets, Payload: payload})
}

// Subscribe implements engine.Port and records the topic for replay
// after a reconnect. An encode failure means the connection is already
// broken; recvLoop deals with that, so the error carries no extra
// information here.
func (c *Client) Subscribe(topic string) {
	c.mu.Lock()
	c.topics[topic] = true
	c.mu.Unlock()
	_ = c.encode(&wire.Frame{Kind: wire.KindSubscribe, Topic: topic}, false)
}

// Unsubscribe stops topic deliveries and drops the replay record.
func (c *Client) Unsubscribe(topic string) {
	c.mu.Lock()
	delete(c.topics, topic)
	c.mu.Unlock()
	_ = c.encode(&wire.Frame{Kind: wire.KindUnsubscribe, Topic: topic}, false)
}

// Deregister frees the endpoint name on the broker (the graceful-leave
// half of the engine's drain protocol) and tears the client down.
func (c *Client) Deregister() {
	_ = c.shutdown(&wire.Frame{Kind: wire.KindDeregister})
}

// Interface checks.
var _ engine.Port = (*Client)(nil)

// Package broker provides the messaging substrate the engine runs on —
// the stand-in for the dedicated messaging instance (ActiveMQ in the
// original Crossflow deployment) that the paper's infrastructure used.
//
// The model is endpoint-based: every node (master, each worker) registers
// an Endpoint and owns a single inbox Mailbox, actor style. Endpoints
// exchange direct messages and publish/subscribe on named topics; all
// deliveries land in the receiving endpoint's inbox wrapped in an
// *Envelope. Delivery is asynchronous with a configurable per-link
// latency, applied through the clock so that the simulated and live
// engines share one code path. On a simulated clock each route also
// carries a deterministic sub-66µs skew (see routeSeed); on a wall clock
// the network already provides that nondeterminism, so a zero-delay
// message goes straight into the receiving inbox.
package broker

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"crossflow/internal/vclock"
)

// Envelope wraps every message delivered to an endpoint's inbox.
// Deliveries arrive as *Envelope: a topic fanout shares one envelope
// across all subscribers, so receivers must treat it as read-only.
type Envelope struct {
	// From is the name of the sending endpoint.
	From string
	// To is the receiving endpoint's name for direct messages, empty for
	// topic deliveries.
	To string
	// Topic is the topic the message was published on, empty for direct
	// messages.
	Topic string
	// Payload is the application message.
	Payload any
	// SentAt is the clock time at which the sender handed the message to
	// the broker.
	SentAt time.Time
}

// EventDetail renders a queued envelope for vclock.MailboxDigest: its
// route (or topic) and payload, by content when the payload describes
// itself.
func (env *Envelope) EventDetail() string {
	dst := env.To
	if env.Topic != "" {
		dst = env.Topic
	}
	return env.From + ">" + dst + " " + payloadDetail(env.Payload)
}

// DelayFunc computes the one-way delivery delay for a message from one
// endpoint to another. Implementations may add jitter; they are called
// under the broker lock and must not block.
type DelayFunc func(from, to *Endpoint) time.Duration

// defaultDelay is the link-sum delivery model.
func defaultDelay(from, to *Endpoint) time.Duration {
	var d time.Duration
	if from != nil {
		d += from.link
	}
	if to != nil {
		d += to.link
	}
	return d
}

// DropFunc decides whether one delivery is lost in transit. It is
// consulted once per direct message and once per fanout target, after
// the down/disconnect checks; returning true silently discards that
// delivery. Implementations are called under the broker lock and must
// not block; to keep runs repeatable they should decide from the
// envelope's content and timestamp, never from call order or an
// unseeded random source.
type DropFunc func(env Envelope, to string) bool

// Broker routes messages between registered endpoints.
type Broker struct {
	clk   vclock.Clock
	delay DelayFunc
	// skew is whether clk is a *vclock.Sim: only simulated deliveries
	// add the route skew.
	skew bool
	// labeled is non-nil only when clk is a simulated clock with a model
	// checker's chooser installed; delivery events then carry route
	// labels. Decided once at construction so the delivery hot path pays
	// a single nil check in normal runs.
	labeled *vclock.Sim

	mu        sync.Mutex
	drop      DropFunc
	endpoints map[string]*Endpoint
	topics    map[string][]*Endpoint // topic -> subscribers, sorted by name
}

// New returns a broker on the given clock. The default delivery delay is
// the sum of the two endpoints' link latencies.
func New(clk vclock.Clock) *Broker {
	_, sim := clk.(*vclock.Sim)
	return &Broker{
		clk:       clk,
		delay:     defaultDelay,
		skew:      sim,
		labeled:   vclock.ActiveLabeled(clk),
		endpoints: make(map[string]*Endpoint),
		topics:    make(map[string][]*Endpoint),
	}
}

// SetDelayFunc replaces the delivery-delay model. Passing nil restores
// the default link-sum model.
func (b *Broker) SetDelayFunc(f DelayFunc) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if f == nil {
		f = defaultDelay
	}
	b.delay = f
}

// SetDropFunc installs a delivery-loss model for fault injection.
// Passing nil restores lossless delivery.
func (b *Broker) SetDropFunc(f DropFunc) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.drop = f
}

// Register creates an endpoint with the given name and one-way link
// latency to the broker. It panics if the name is already taken: node
// names are configuration, and a collision is a programming error.
func (b *Broker) Register(name string, link time.Duration) *Endpoint {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, dup := b.endpoints[name]; dup {
		panic(fmt.Sprintf("broker: endpoint %q already registered", name))
	}
	ep := &Endpoint{
		broker:   b,
		name:     name,
		link:     link,
		inbox:    b.clk.NewMailbox("inbox:" + name),
		skewSeed: routeSeed(name),
	}
	b.endpoints[name] = ep
	return ep
}

// Deregister removes the named endpoint from the broker: its topic
// subscriptions are dropped and the name is freed for a future Register
// — the membership counterpart of a worker leaving a long-lived
// cluster. Deliveries already scheduled for its inbox land there
// harmlessly (the caller typically closes the inbox); subsequent sends
// to the name are dropped like sends to any unknown endpoint.
func (b *Broker) Deregister(name string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	ep, ok := b.endpoints[name]
	if !ok {
		return
	}
	delete(b.endpoints, name)
	for topic, subs := range b.topics {
		i := sort.Search(len(subs), func(i int) bool { return subs[i].name >= name })
		if i >= len(subs) || subs[i].name != name {
			continue
		}
		copy(subs[i:], subs[i+1:])
		subs[len(subs)-1] = nil
		b.topics[topic] = subs[:len(subs)-1]
	}
	ep.down = true
}

// Lookup returns the endpoint registered under name, if any.
func (b *Broker) Lookup(name string) (*Endpoint, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	ep, ok := b.endpoints[name]
	return ep, ok
}

// send delivers a direct message.
func (b *Broker) send(from *Endpoint, to string, payload any) bool {
	b.mu.Lock()
	dst, ok := b.endpoints[to]
	if !ok || dst.down || from.down {
		b.mu.Unlock()
		return false
	}
	env := &Envelope{From: from.name, To: to, Payload: payload, SentAt: b.clk.Now()}
	if b.drop != nil && b.drop(*env, to) {
		// Lost in transit: the sender cannot tell, so report delivered.
		b.mu.Unlock()
		return true
	}
	d := b.routeDelay(from, dst)
	b.mu.Unlock()
	b.deliver(dst, env, d)
	return true
}

// maxRouteSkew bounds a route skew, in nanoseconds: under 66µs, well
// below any configured link latency, but enough hash space that two
// routes into the same inbox virtually never collide.
const maxRouteSkew = 0xFFFF

// A route skew is a deterministic sub-65µs propagation skew keyed by the
// (from, to) route. Without it, two senders handing the broker messages
// at the same simulated instant over equal-latency links would deliver
// at the same deadline, and equal-deadline timers fire in the order the
// senders won the broker lock — an OS-scheduling race that same-seed
// re-runs may resolve differently. The skew separates the deadlines of
// distinct routes by message content alone, the way no two physical
// paths ever share an exact propagation delay. Messages on the same
// route keep their causal send order (same skew, monotone timer
// sequence). It is the low bits of 64-bit FNV-1a over from, a zero byte
// and to: routeSeed hashes the sender's part once, at Register, and
// skewFrom the receiver's name per delivery.

// 64-bit FNV-1a parameters (as in hash/fnv).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// routeSeed is the FNV-1a state after from and the zero separator.
func routeSeed(from string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(from); i++ {
		h = (h ^ uint64(from[i])) * fnvPrime64
	}
	return h * fnvPrime64 // the zero separator: h ^ 0 == h
}

// skewFrom finishes a route hash begun by routeSeed: the route's skew.
func skewFrom(seed uint64, to string) time.Duration {
	h := seed
	for i := 0; i < len(to); i++ {
		h = (h ^ uint64(to[i])) * fnvPrime64
	}
	return time.Duration(h & maxRouteSkew)
}

// routeDelay is the delivery delay from -> to: the delay model, plus the
// route skew on a simulated clock. Caller holds b.mu.
func (b *Broker) routeDelay(from, to *Endpoint) time.Duration {
	d := b.delay(from, to)
	if b.skew {
		d += skewFrom(from.skewSeed, to.name)
	}
	return d
}

// delivery is one scheduled fanout target.
type delivery struct {
	ep *Endpoint
	d  time.Duration
}

// fanoutPool recycles the per-fanout target scratch so steady-state
// fanouts allocate only the shared envelope.
var fanoutPool = sync.Pool{New: func() any { return new([]delivery) }}

// fanout delivers env, one shared envelope, to every subscriber of its
// topic or, when it has none, to each endpoint named in targets, and
// returns the number reached. Unknown, disconnected and dropped targets
// are skipped. Deliveries are scheduled in list order, which breaks ties
// between equal deadlines: a topic's subscribers are kept name-sorted,
// and a multicast caller that needs replay determinism must pass a
// deterministically-ordered list.
func (b *Broker) fanout(from *Endpoint, env *Envelope, targets []string) int {
	scratch := fanoutPool.Get().(*[]delivery)
	outs := (*scratch)[:0]
	b.mu.Lock()
	env.SentAt = b.clk.Now()
	add := func(ep *Endpoint) {
		if !ep.down && (b.drop == nil || !b.drop(*env, ep.name)) {
			outs = append(outs, delivery{ep: ep, d: b.routeDelay(from, ep)})
		}
	}
	switch {
	case from.down: // a disconnected sender reaches no one
	case env.Topic != "":
		for _, ep := range b.topics[env.Topic] {
			add(ep)
		}
	default:
		for _, to := range targets {
			if ep, ok := b.endpoints[to]; ok {
				add(ep)
			}
		}
	}
	b.mu.Unlock()
	for _, t := range outs {
		b.deliver(t.ep, env, t.d)
	}
	n := len(outs)
	clear(outs)
	*scratch = outs[:0]
	fanoutPool.Put(scratch)
	return n
}

// deliver places env in dst's inbox after delay d of clock time: one
// SendAfter clock event per delivery, labeled for the model checker
// when it is listening.
func (b *Broker) deliver(dst *Endpoint, env *Envelope, d time.Duration) {
	if d <= 0 {
		dst.inbox.Send(env)
		return
	}
	if b.labeled != nil {
		b.labeled.SendAfterLabeled(d, deliveryLabel(env, dst.name), dst.inbox, env)
		return
	}
	b.clk.SendAfter(d, dst.inbox, env)
}

// deliveryLabel describes one in-flight delivery to the model checker.
// The route is the serialization class: messages between the same pair
// of endpoints stay FIFO (their deadlines share the route skew and the
// timer sequence is monotone), while different routes interleave
// freely. The receiver is the conflict domain — two deliveries to
// different nodes commute.
func deliveryLabel(env *Envelope, to string) vclock.EventLabel {
	route := env.From + ">" + to
	return vclock.EventLabel{Class: route, Node: to, Detail: route + " " + payloadDetail(env.Payload)}
}

func payloadDetail(p any) string {
	if d, ok := p.(interface{ EventDetail() string }); ok {
		return d.EventDetail()
	}
	return fmt.Sprintf("%T", p)
}

// subscribe adds ep to topic, keeping the subscriber list name-sorted.
func (b *Broker) subscribe(ep *Endpoint, topic string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	subs := b.topics[topic]
	i := sort.Search(len(subs), func(i int) bool { return subs[i].name >= ep.name })
	if i < len(subs) && subs[i].name == ep.name {
		return // already subscribed
	}
	subs = append(subs, nil)
	copy(subs[i+1:], subs[i:])
	subs[i] = ep
	b.topics[topic] = subs
}

// unsubscribe removes ep from topic.
func (b *Broker) unsubscribe(ep *Endpoint, topic string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	subs := b.topics[topic]
	i := sort.Search(len(subs), func(i int) bool { return subs[i].name >= ep.name })
	if i >= len(subs) || subs[i].name != ep.name {
		return
	}
	copy(subs[i:], subs[i+1:])
	subs[len(subs)-1] = nil
	b.topics[topic] = subs[:len(subs)-1]
}

// setDown marks ep connected or disconnected.
func (b *Broker) setDown(ep *Endpoint, down bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	ep.down = down
}

// Endpoint is one node's attachment to the broker.
type Endpoint struct {
	broker *Broker
	name   string
	link   time.Duration
	inbox  vclock.Mailbox
	down   bool // guarded by broker.mu
	// skewSeed is routeSeed(name); immutable.
	skewSeed uint64
}

// Name returns the endpoint's registered name.
func (ep *Endpoint) Name() string { return ep.name }

// Link returns the endpoint's one-way link latency to the broker.
func (ep *Endpoint) Link() time.Duration { return ep.link }

// Inbox returns the endpoint's delivery mailbox. Every message arrives
// as an *Envelope.
func (ep *Endpoint) Inbox() vclock.Mailbox { return ep.inbox }

// Send delivers payload directly to the endpoint named to. It reports
// false if the destination is unknown or either side is disconnected.
func (ep *Endpoint) Send(to string, payload any) bool {
	return ep.broker.send(ep, to, payload)
}

// SendMulti delivers payload directly to each named endpoint, sharing
// one envelope across the deliveries, and returns how many targets were
// reached. It is the targeted counterpart of Publish: a multicast to a
// chosen candidate set instead of a whole topic.
func (ep *Endpoint) SendMulti(targets []string, payload any) int {
	return ep.broker.fanout(ep, &Envelope{From: ep.name, Payload: payload}, targets)
}

// Publish fans payload out to all subscribers of topic and returns the
// number of endpoints it was delivered to. The empty topic reaches no
// one: an envelope without a topic is a multicast.
func (ep *Endpoint) Publish(topic string, payload any) int {
	return ep.broker.fanout(ep, &Envelope{From: ep.name, Topic: topic, Payload: payload}, nil)
}

// Subscribe starts delivering messages published on topic to this
// endpoint's inbox.
func (ep *Endpoint) Subscribe(topic string) { ep.broker.subscribe(ep, topic) }

// Unsubscribe stops topic deliveries to this endpoint.
func (ep *Endpoint) Unsubscribe(topic string) { ep.broker.unsubscribe(ep, topic) }

// Disconnect simulates the endpoint dropping off the network: subsequent
// sends to or from it are dropped until Reconnect.
func (ep *Endpoint) Disconnect() { ep.broker.setDown(ep, true) }

// Down reports whether the endpoint is currently disconnected or
// deregistered. The sharded control plane's router consults it before
// forwarding worker traffic into a shard's inbox, so a partitioned
// shard loses that traffic exactly the way the broker would have lost a
// direct send to it.
func (ep *Endpoint) Down() bool {
	ep.broker.mu.Lock()
	defer ep.broker.mu.Unlock()
	return ep.down
}

// Deregister removes the endpoint from the broker for good, freeing its
// name for re-registration. See Broker.Deregister.
func (ep *Endpoint) Deregister() { ep.broker.Deregister(ep.name) }

// Reconnect reverses Disconnect.
func (ep *Endpoint) Reconnect() { ep.broker.setDown(ep, false) }

package engine

import "crossflow/internal/vclock"

// Port is a node's attachment to the messaging substrate. The in-process
// broker's Endpoint implements it for simulated (and single-process
// live) runs; the transport package's Client implements it over TCP for
// real multi-process deployments. Deliveries arrive in the Inbox as
// *broker.Envelope pointers either way, which is what lets the master
// and worker code run unchanged in both modes.
type Port interface {
	// Name returns the node's registered endpoint name.
	Name() string
	// Inbox returns the delivery mailbox.
	Inbox() vclock.Mailbox
	// Send delivers payload to the named endpoint; false if unreachable.
	Send(to string, payload any) bool
	// Publish fans payload out on topic, returning the number of
	// subscribers reached.
	Publish(topic string, payload any) int
	// Subscribe starts topic delivery into the inbox.
	Subscribe(topic string)
}

// disconnecter is the optional crash hook a Port may provide; the
// in-process endpoint uses it for fault injection.
type disconnecter interface {
	Disconnect()
}

// deregisterer is the optional graceful-leave hook a Port may provide:
// it removes the node from the substrate entirely, freeing its name for
// a future joiner. A drained worker calls it as it leaves.
type deregisterer interface {
	Deregister()
}

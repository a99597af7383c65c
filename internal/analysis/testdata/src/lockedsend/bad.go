package fixture

import "sync"

type mailbox interface {
	Recv() (any, bool)
	Send(any) bool
}

type clock interface {
	Sleep(d int)
	Wait() int
}

type node struct {
	mu  sync.Mutex
	ch  chan int
	mb  mailbox
	clk clock
}

func (n *node) badSend(v int) {
	n.mu.Lock()
	n.ch <- v // want lockedsend
	n.mu.Unlock()
}

func (n *node) badRecvUnderDefer() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return <-n.ch // want lockedsend
}

func (n *node) badMailboxRecv() {
	n.mu.Lock()
	v, _ := n.mb.Recv() // want lockedsend
	_ = v
	n.mu.Unlock()
}

func (n *node) badSleep() {
	n.mu.Lock()
	n.clk.Sleep(5) // want lockedsend
	n.mu.Unlock()
}

func (n *node) badSelect() {
	n.mu.Lock()
	defer n.mu.Unlock()
	select { // want lockedsend
	case v := <-n.ch:
		_ = v
	default:
	}
}

func (n *node) badRWLock() {
	var rw sync.RWMutex
	rw.RLock()
	n.clk.Wait() // want lockedsend
	rw.RUnlock()
}

package netem

import "fmt"

// pktList is an intrusive list of packets linked through their next field:
// every place a packet waits (a pipe's packets in flight, a queue's
// backlog, the pool's free lists) is one, so none of them allocates. A list
// is used one way: as a FIFO through push, which appends at the tail (pipes
// and queues), or as a LIFO through pushFront, which does not keep the tail
// (free lists). pop takes the head.
//
// A packet is on at most one list at a time: push and pushFront panic on a
// packet already listed, which is how freeing a packet still in a pipe or
// queue, or forwarding one twice, fails loudly.
type pktList struct {
	head *Packet
	// tail is the link the next push writes: the newest packet's next, or
	// &head when the list was empty at the last push. It is stale while
	// the list is empty, and push re-anchors it then.
	tail **Packet
	n    int
}

// push appends p at the tail.
//
//simlint:hot
func (l *pktList) push(p *Packet) {
	p.enlist()
	if l.n == 0 {
		l.tail = &l.head
	}
	*l.tail = p
	l.tail = &p.next
	l.n++
}

// pushFront puts p at the head.
//
//simlint:hot
func (l *pktList) pushFront(p *Packet) {
	p.enlist()
	p.next = l.head
	l.head = p
	l.n++
}

// pop removes and returns the head; the list must not be empty.
//
//simlint:hot
func (l *pktList) pop() *Packet {
	p := l.head
	l.head = p.next
	p.next = nil
	p.listed = false
	l.n--
	return p
}

// enlist marks p as waiting on a list, panicking if it already is.
func (p *Packet) enlist() {
	if p.listed {
		panic(fmt.Sprintf("netem: packet (seq %d, ack %v) is already waiting in a pipe, a queue or a free list", p.Seq, p.Ack))
	}
	p.listed = true
}

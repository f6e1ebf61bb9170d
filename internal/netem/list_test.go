package netem

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mptcpsim/internal/sim"
)

// listMode is how a model program uses its list: as a FIFO (push, as pipes
// and queues do) or as a LIFO (pushFront, as free lists do).
type listMode int

const (
	listFIFO listMode = iota
	listLIFO
)

// runListProgram applies prog to a pktList and to a []*Packet reference,
// checking the list against the reference after every step, and reports
// which cases it reached. Each byte is one step: below 0x60 a pop (when the
// list holds a packet), else a push of packet b%8 when it is not listed. A
// popped packet may be pushed again.
func runListProgram(t *testing.T, mode listMode, prog []byte) map[string]int {
	t.Helper()
	var (
		l      pktList
		ref    []*Packet
		ps     [8]Packet
		cover  = make(map[string]int)
		ever   bool // the list has held a packet
		popped [8]bool
	)
	for i := range ps {
		ps[i].Seq = int64(i)
	}
	for step, b := range prog {
		if b < 0x60 {
			if len(ref) == 0 {
				continue
			}
			p := l.pop()
			if p != ref[0] {
				t.Fatalf("%v step %d: pop gave packet %d, want %d", mode, step, p.Seq, ref[0].Seq)
			}
			if p.next != nil || p.listed {
				t.Fatalf("%v step %d: popped packet %d still linked (next %p, listed %v)", mode, step, p.Seq, p.next, p.listed)
			}
			ref = ref[1:]
			popped[p.Seq] = true
			if len(ref) == 0 {
				cover["pop to empty"]++
			}
		} else {
			p := &ps[int(b)%len(ps)]
			if p.listed {
				continue
			}
			switch {
			case len(ref) == 0 && ever:
				cover["push after emptying"]++
			case len(ref) > 0:
				cover["push onto a non-empty list"]++
			}
			if popped[p.Seq] {
				cover["re-push of a popped packet"]++
			}
			ever = true
			if mode == listLIFO {
				l.pushFront(p)
				ref = append([]*Packet{p}, ref...)
			} else {
				l.push(p)
				ref = append(ref, p)
			}
		}
		checkList(t, fmt.Sprintf("%v step %d", mode, step), &l, ref, mode == listFIFO)
	}
	return cover
}

// checkList requires l to hold exactly ref, in order, each packet marked
// listed and the last one unlinked; a FIFO's tail cursor must be its link.
func checkList(t *testing.T, where string, l *pktList, ref []*Packet, fifo bool) {
	t.Helper()
	if l.n != len(ref) {
		t.Fatalf("%s: list holds %d, reference %d", where, l.n, len(ref))
	}
	p := l.head
	for i, want := range ref {
		if p != want {
			t.Fatalf("%s: entry %d is %p, want packet %d (%p)", where, i, p, want.Seq, want)
		}
		if !p.listed {
			t.Fatalf("%s: listed packet %d not marked", where, p.Seq)
		}
		p = p.next
	}
	if p != nil {
		t.Fatalf("%s: list runs on past %d entries to packet %d", where, len(ref), p.Seq)
	}
	if n := len(ref); fifo && n > 0 && l.tail != &ref[n-1].next {
		t.Fatalf("%s: tail cursor is not the last packet's link", where)
	}
}

func (m listMode) String() string { return [...]string{"fifo", "lifo"}[m] }

// TestPacketListModel runs random push/pop programs on a pktList used as a
// FIFO and as a LIFO against a slice, and requires that every case occurs:
// popping to empty and pushing again included.
func TestPacketListModel(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	total := make(map[listMode]map[string]int)
	for i := 0; i < 500; i++ {
		mode := listMode(i % 2)
		prog := make([]byte, 1+rng.Intn(60))
		rng.Read(prog)
		if total[mode] == nil {
			total[mode] = make(map[string]int)
		}
		for c, v := range runListProgram(t, mode, prog) {
			total[mode][c] += v
		}
	}
	for _, mode := range []listMode{listFIFO, listLIFO} {
		for _, c := range []string{"pop to empty", "push after emptying", "push onto a non-empty list", "re-push of a popped packet"} {
			if total[mode][c] == 0 {
				t.Errorf("%v: case %q never occurred in the random programs", mode, c)
			}
		}
	}
}

// TestPacketOnOneListAtATime: a packet waits in one place at a time, so
// sending a queued packet into a pipe, forwarding a packet twice, freeing a
// packet still in a pipe and pushing one twice each panic with its seq.
func TestPacketOnOneListAtATime(t *testing.T) {
	for name, misuse := range map[string]func(s *sim.Sim, pl *PacketPool){
		"queued packet sent into a pipe": func(s *sim.Sim, pl *PacketPool) {
			pipe := NewPipe(s, sim.Millisecond, "p")
			p := pl.NewData(0, 4242, MSS, 0, NewRoute(NewDropTail(s, 10e6, 10, "q"), &Collector{}))
			p.SendOn()
			pipe.Recv(p)
		},
		"packet forwarded twice": func(s *sim.Sim, pl *PacketPool) {
			p := pl.NewData(0, 4242, MSS, 0, NewRoute(NewDropTail(s, 10e6, 10, "q"), NewPipe(s, sim.Millisecond, "p"), &Collector{}))
			p.SendOn()
			p.SendOn()
		},
		"piped packet freed": func(s *sim.Sim, pl *PacketPool) {
			p := pl.NewData(0, 4242, MSS, 0, NewRoute(NewPipe(s, sim.Millisecond, "p"), &Collector{}))
			p.SendOn()
			p.Free()
		},
		"double push": func(s *sim.Sim, pl *PacketPool) {
			var l pktList
			p := pl.NewAck(4242, 0, 0, nil)
			l.push(p)
			l.pushFront(p)
		},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "seq 4242") || !strings.Contains(msg, "already waiting") {
					t.Errorf("%s: panic %q, want one naming seq 4242 as already waiting", name, msg)
				}
			}()
			s := sim.New(1)
			misuse(s, PoolFor(s))
		}()
	}
}

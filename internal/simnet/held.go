package simnet

import "wanac/internal/wire"

// held is where the network keeps the check messages it carries: a send
// copies a lent Query, Response or Busy into one taken from here, the
// delivery lends it to the handler, and it comes back when the delivery
// ends, delivered or dropped. Once the lists have grown to the traffic in
// flight, carrying a check's messages allocates nothing. Every other
// message travels in the box it was sent in.
type held struct {
	queries   []*wire.Query
	responses []*wire.Response
	busies    []*wire.Busy
}

// maxHeld bounds each list, as maxFreeEvents bounds the event pool.
const maxHeld = 1024

// take returns what a delivery of msg carries: the network's own copy of a
// lent check message, or msg itself.
func (h *held) take(msg wire.Message) wire.Message {
	switch m := msg.(type) {
	case *wire.Query:
		return pop(&h.queries, m)
	case *wire.Response:
		return pop(&h.responses, m)
	case *wire.Busy:
		return pop(&h.busies, m)
	}
	return msg
}

// give takes back a check message take returned, once its delivery ends.
func (h *held) give(msg wire.Message) {
	switch m := msg.(type) {
	case *wire.Query:
		push(&h.queries, m)
	case *wire.Response:
		push(&h.responses, m)
	case *wire.Busy:
		push(&h.busies, m)
	}
}

// pop returns a copy of *v in a reused or new T.
func pop[T any](free *[]*T, v *T) *T {
	var p *T
	if n := len(*free); n > 0 {
		p = (*free)[n-1]
		(*free)[n-1] = nil
		*free = (*free)[:n-1]
	} else {
		p = new(T)
	}
	*p = *v
	return p
}

// push keeps p for reuse, cleared so it holds no strings alive.
func push[T any](free *[]*T, p *T) {
	var zero T
	*p = zero
	if len(*free) < maxHeld {
		*free = append(*free, p)
	}
}

// boxed is msg as a Filter sees it: a lent check message copied into a box.
func boxed(msg wire.Message) wire.Message {
	switch m := msg.(type) {
	case *wire.Query:
		return *m
	case *wire.Response:
		return *m
	case *wire.Busy:
		return *m
	}
	return msg
}

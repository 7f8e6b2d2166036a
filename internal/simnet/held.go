package simnet

import (
	"reflect"

	"wanac/internal/wire"
)

// held is the network's copies of lent messages, a free list per kind slot:
// Lend copies the sender's message into one taken from here, the delivery
// lends it to the handler, and it comes back when the delivery ends,
// delivered or dropped. Once warm, carrying a lent message allocates nothing.
type held [kindSlots][]wire.Message

// maxHeld bounds each list, as maxFreeEvents bounds the event pool.
const maxHeld = 1024

// take returns a copy of *msg in one of the network's own, or nil unless
// msg points to a kind nodes lend: each has only values and strings, so the
// copy shares nothing its sender may reuse. It only reads msg.
func (h *held) take(msg wire.Message) wire.Message {
	free := &h[max(kindSlot(msg), 0)]
	switch m := msg.(type) {
	case *wire.Query:
		return pop(free, m)
	case *wire.Response:
		return pop(free, m)
	case *wire.Busy:
		return pop(free, m)
	case *wire.RevokeNotice:
		return pop(free, m)
	case *wire.RevokeAck:
		return pop(free, m)
	case *wire.Update:
		return pop(free, m)
	case *wire.UpdateAck:
		return pop(free, m)
	}
	return nil
}

// give takes back a copy take returned, cleared so it keeps no strings
// alive and a handler that kept it sees a zero message; a value is ignored.
func (h *held) give(msg wire.Message) {
	i := kindSlot(msg)
	if i < 0 || len(h[i]) >= maxHeld {
		return
	}
	switch m := msg.(type) {
	case *wire.Query:
		*m = wire.Query{}
	case *wire.Response:
		*m = wire.Response{}
	case *wire.Busy:
		*m = wire.Busy{}
	case *wire.RevokeNotice:
		*m = wire.RevokeNotice{}
	case *wire.RevokeAck:
		*m = wire.RevokeAck{}
	case *wire.Update:
		*m = wire.Update{}
	case *wire.UpdateAck:
		*m = wire.UpdateAck{}
	default:
		return
	}
	h[i] = append(h[i], msg)
}

// pop returns a copy of *v in a reused or new T.
func pop[T any, P interface {
	*T
	wire.Message
}](free *[]wire.Message, v P) wire.Message {
	var p P
	if n := len(*free); n > 0 {
		p = (*free)[n-1].(P)
		(*free)[n-1] = nil
		*free = (*free)[:n-1]
	} else {
		p = new(T)
	}
	*p = *v
	return p
}

// lent reports whether msg is a pointer to a kind nodes lend.
func lent(msg wire.Message) bool {
	switch msg.(type) {
	case *wire.Query, *wire.Response, *wire.Busy, *wire.RevokeNotice, *wire.RevokeAck, *wire.Update, *wire.UpdateAck:
		return true
	}
	return false
}

// boxed is msg as a Filter, or a handler without LentHandler, sees it: a
// lent message's value copied into a box.
func boxed(msg wire.Message) wire.Message {
	if !lent(msg) {
		return msg
	}
	return reflect.ValueOf(msg).Elem().Interface().(wire.Message)
}

package netcore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"wanac/internal/wire"
)

// Frame layout, shared by both live transports:
//
//	payload := uvarint(len(id)) ++ id ++ wire.Marshal(msg)
//
// Datagram transports (udpnet) put one payload in each datagram. Stream
// transports (tcpnet) prefix each payload with a big-endian u32 length. The
// MaxFrame bound applies to the payload in both directions: an oversized
// outbound message is refused at encode time (and counted as a drop by the
// caller) instead of being written to a peer that would reject it.

// EncodeFrame builds a datagram payload. It fails if the payload would
// exceed maxFrame. The buffer is presized exactly from wire.Size, so the
// encode never reallocates mid-append regardless of message size.
func EncodeFrame(from wire.NodeID, msg wire.Message, maxFrame int) ([]byte, error) {
	size, err := wire.Size(msg)
	if err != nil {
		return nil, err
	}
	total := FrameOverhead(from) + size
	if total > maxFrame {
		return nil, fmt.Errorf("netcore: frame too large (%d > %d bytes)", total, maxFrame)
	}
	buf := binary.AppendUvarint(make([]byte, 0, total), uint64(len(from)))
	buf = append(buf, from...)
	buf, err = wire.AppendMarshal(buf, msg)
	if err != nil {
		return nil, err
	}
	return buf, nil
}

// FrameDecoder parses the payloads arriving on one connection or socket. It
// remembers what a steady stream repeats — the last few sender ids (one UDP
// socket hears every peer), the application ids the messages name — and
// returns those strings again instead of allocating them per payload.
// Decoded messages never alias data, so callers may reuse the buffer at
// once; the slice holding them is the decoder's, reused by its next call.
// The zero value is ready; not safe for concurrent use.
type FrameDecoder struct {
	from [4]wire.NodeID
	next uint8
	msgs wire.Decoder
}

// Decode parses one payload into its sender and the protocol messages it
// carries, in send order: a coalesced wire.Batch's, or a plain frame's one.
func (d *FrameDecoder) Decode(data []byte) (wire.NodeID, []wire.Message, error) {
	idLen, n := binary.Uvarint(data)
	if n <= 0 || idLen > uint64(len(data)-n) {
		return "", nil, errors.New("netcore: bad sender id")
	}
	from := d.sender(data[n : n+int(idLen)])
	msgs, err := d.msgs.Messages(data[n+int(idLen):])
	if err != nil {
		return "", nil, err
	}
	return from, msgs, nil
}

// sender returns the sender id b spells, from the remembered ids when one
// matches; a new id replaces the oldest.
func (d *FrameDecoder) sender(b []byte) wire.NodeID {
	for _, id := range d.from {
		if string(b) == string(id) {
			return id
		}
	}
	id := wire.NodeID(b)
	d.from[d.next%uint8(len(d.from))] = id
	d.next++
	return id
}

// EncodeStreamFrame builds a length-prefixed stream frame. It fails if the
// payload would exceed maxFrame. The buffer is presized exactly from
// wire.Size, so the encode never reallocates mid-append.
func EncodeStreamFrame(from wire.NodeID, msg wire.Message, maxFrame int) ([]byte, error) {
	size, err := wire.Size(msg)
	if err != nil {
		return nil, err
	}
	payload := FrameOverhead(from) + size
	if payload > maxFrame {
		return nil, fmt.Errorf("netcore: frame too large (%d > %d bytes)", payload, maxFrame)
	}
	buf := make([]byte, 4, 4+payload)
	buf = binary.AppendUvarint(buf, uint64(len(from)))
	buf = append(buf, from...)
	buf, err = wire.AppendMarshal(buf, msg)
	if err != nil {
		return nil, err
	}
	binary.BigEndian.PutUint32(buf[:4], uint32(len(buf)-4))
	return buf, nil
}

// FrameOverhead returns the per-frame header cost for frames from id: the
// uvarint-prefixed sender id every payload starts with. Transports use it
// to pre-validate a message's encoded size against their frame limit
// before queuing it un-encoded.
func FrameOverhead(id wire.NodeID) int { return uvarintLen(uint64(len(id))) + len(id) }

// PackedSize returns the bytes one payload of length n occupies inside a
// packed datagram (uvarint length prefix plus the payload).
func PackedSize(n int) int { return uvarintLen(uint64(n)) + n }

// PackedMarker introduces a packed datagram: several uvarint-length-
// prefixed payloads sharing one datagram (the UDP side of batched flushes).
// A raw frame can never start with this byte, because a frame's first byte
// is the uvarint length of the sender id and node ids are non-empty — so
// receivers can tell the two layouts apart from the first byte alone.
const PackedMarker byte = 0x00

// SplitDatagram appends the payloads carried by one datagram to dst and
// returns it. A datagram starting with PackedMarker is split into its
// length-prefixed payloads; anything else is a single raw payload. The
// returned slices alias data.
func SplitDatagram(data []byte, dst [][]byte) ([][]byte, error) {
	if len(data) == 0 {
		return dst, errors.New("netcore: empty datagram")
	}
	if data[0] != PackedMarker {
		return append(dst, data), nil
	}
	rest := data[1:]
	for len(rest) > 0 {
		n, sz := binary.Uvarint(rest)
		if sz <= 0 || n == 0 || n > uint64(len(rest)-sz) {
			return dst, errors.New("netcore: bad packed datagram")
		}
		dst = append(dst, rest[sz:sz+int(n)])
		rest = rest[sz+int(n):]
	}
	return dst, nil
}

// ReadStreamFrame reads one length-prefixed frame, rejecting sizes outside
// (0, maxFrame].
func ReadStreamFrame(r io.Reader, maxFrame int) (wire.NodeID, []wire.Message, error) {
	return NewFrameReader(r, maxFrame).Next()
}

// FrameReader reads the length-prefixed frames of one stream into one
// grow-only buffer: a connection pays for its largest frame once, not for
// every frame, and a header alone buys at most one growth.
type FrameReader struct {
	r   io.Reader
	max int
	buf []byte
	dec FrameDecoder
}

// NewFrameReader reads frames of at most maxFrame bytes from r. Hand it a
// buffered reader to spend one read per burst instead of two per frame.
func NewFrameReader(r io.Reader, maxFrame int) *FrameReader {
	return &FrameReader{r: r, max: maxFrame, buf: make([]byte, 64)}
}

// Next reads and decodes the next frame (FrameDecoder.Decode), rejecting
// sizes outside (0, maxFrame].
func (f *FrameReader) Next() (wire.NodeID, []wire.Message, error) {
	if _, err := io.ReadFull(f.r, f.buf[:4]); err != nil {
		return "", nil, err
	}
	size := binary.BigEndian.Uint32(f.buf[:4])
	if size == 0 || size > uint32(f.max) {
		return "", nil, fmt.Errorf("netcore: bad frame size %d", size)
	}
	if int(size) > len(f.buf) {
		f.buf = make([]byte, max(int(size), 2*len(f.buf)))
	}
	if _, err := io.ReadFull(f.r, f.buf[:size]); err != nil {
		return "", nil, err
	}
	return f.dec.Decode(f.buf[:size])
}

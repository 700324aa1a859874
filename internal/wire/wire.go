// Package wire provides the binary encoding of every protocol message in
// the repository — AER (core), the almost-everywhere substrate (ae) and
// the baselines — plus envelope framing for transport runners.
//
// The simulation runners meter communication through Message.WireSize; this
// package is what makes those numbers honest: for every message type,
// len(Marshal(m)) == m.WireSize() (enforced by the round-trip tests), and
// the 9-byte envelope frame matches the meter's per-message overhead. The
// TCP runner (internal/netrun) uses these codecs to move the same protocol
// messages across real sockets.
//
// Layout (little-endian):
//
//	envelope: from uint32 | to uint32 | kind byte | payload
//	string:   nbits uint16 | ⌈nbits/8⌉ packed bytes
package wire

import (
	"encoding/binary"
	"fmt"

	"github.com/fastba/fastba/internal/ae"
	"github.com/fastba/fastba/internal/baseline"
	"github.com/fastba/fastba/internal/bitstring"
	"github.com/fastba/fastba/internal/core"
	"github.com/fastba/fastba/internal/simnet"
)

// Kind bytes identify message types on the wire. They are part of the
// serialized contract: values must never be reused.
const (
	kindPush   byte = 0x01
	kindPoll   byte = 0x02
	kindPull   byte = 0x03
	kindFw2    byte = 0x05
	kindAnswer byte = 0x06
	kindFw1    byte = 0x08 // x u32 | r u64 | s, as Fw2; 0x04 (one w) and 0x07 (a list of w's) are retired
	kindElect  byte = 0x10
	kindValue  byte = 0x11
	kindQuery  byte = 0x20
	kindReply  byte = 0x21
	kindBcast  byte = 0x22
	kindVote   byte = 0x23
	// kindInst is the decision-log multiplexing envelope: a 4-byte instance
	// tag followed by the inner message's own kind byte and payload
	// (simnet.InstMsg). Nesting InstMsg inside InstMsg is rejected.
	kindInst byte = 0x30
	// kindCatchupReq/kindCatchupResp are the committed-prefix state
	// transfer of the durable decision log (internal/store): a restarted
	// node requests records from its recovered frontier; the serving peer
	// answers with chunks of opaque encoded records, empty chunk = done.
	kindCatchupReq  byte = 0x40
	kindCatchupResp byte = 0x41
	// kindPing/kindPong are the TCP runtime's heartbeat frames
	// (simnet.Ping/Pong): transport-internal, consumed by the connection
	// supervisor, never delivered to protocol nodes.
	kindPing byte = 0x50
	kindPong byte = 0x51
	// kindBatch is the link-level coalescing frame: several same-link
	// messages collapsed into one wire frame. Layout after the shared
	// from/to header: count u32, then count records of (recLen u32, inner
	// kind byte, inner payload). Batch frames never nest and never carry
	// transport-internal frames (ping/pong).
	kindBatch byte = 0x60
	// kindRelay is the scenario gossip-relay hop (simnet.RelayMsg): origin
	// u32, seq u32, dest u32, ttl u8, then the inner message's kind byte
	// and payload. Relay and instance envelopes never nest.
	kindRelay byte = 0x70
	// kindLogOpen is the multi-process daemon's instance-open broadcast
	// (simnet.LogOpen): seq u64, attempt u32, then payloads in the
	// CatchupResp layout
	// (count u32, per-payload len u32 + bytes). Consumed by the daemon's
	// node shim, never delivered to a protocol node.
	kindLogOpen byte = 0x80
)

// ErrUnknownMessage reports a message type without a codec.
var ErrUnknownMessage = fmt.Errorf("wire: unknown message type")

// KindByte returns the wire tag for a message.
func KindByte(m simnet.Message) (byte, error) {
	switch m.(type) {
	case core.MsgPush:
		return kindPush, nil
	case core.MsgPoll:
		return kindPoll, nil
	case core.MsgPull:
		return kindPull, nil
	case core.MsgFw1:
		return kindFw1, nil
	case core.MsgFw2:
		return kindFw2, nil
	case core.MsgAnswer:
		return kindAnswer, nil
	case ae.MsgElect:
		return kindElect, nil
	case ae.MsgValue:
		return kindValue, nil
	case baseline.MsgQuery:
		return kindQuery, nil
	case baseline.MsgReply:
		return kindReply, nil
	case baseline.MsgBcast:
		return kindBcast, nil
	case baseline.MsgVote:
		return kindVote, nil
	case simnet.InstMsg:
		return kindInst, nil
	case simnet.RelayMsg:
		return kindRelay, nil
	case simnet.CatchupReq:
		return kindCatchupReq, nil
	case simnet.CatchupResp:
		return kindCatchupResp, nil
	case simnet.LogOpen:
		return kindLogOpen, nil
	case simnet.Ping:
		return kindPing, nil
	case simnet.Pong:
		return kindPong, nil
	default:
		return 0, fmt.Errorf("%w: %T", ErrUnknownMessage, m)
	}
}

// Marshal encodes a message payload (without the envelope frame). The
// result's length always equals m.WireSize().
func Marshal(m simnet.Message) ([]byte, error) {
	return appendMessage(make([]byte, 0, m.WireSize()), m)
}

// appendMessage appends m's payload encoding to buf, enabling buffer reuse
// on transport hot paths.
func appendMessage(buf []byte, m simnet.Message) ([]byte, error) {
	start := len(buf)
	switch msg := m.(type) {
	case core.MsgPush:
		buf = appendString(buf, msg.S)
	case core.MsgPoll:
		buf = appendString(buf, msg.S)
		buf = binary.LittleEndian.AppendUint64(buf, msg.R)
	case core.MsgPull:
		buf = appendString(buf, msg.S)
		buf = binary.LittleEndian.AppendUint64(buf, msg.R)
	case core.MsgFw1:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(msg.X))
		buf = binary.LittleEndian.AppendUint64(buf, msg.R)
		buf = appendString(buf, msg.S)
	case core.MsgFw2:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(msg.X))
		buf = binary.LittleEndian.AppendUint64(buf, msg.R)
		buf = appendString(buf, msg.S)
	case core.MsgAnswer:
		buf = appendString(buf, msg.S)
		buf = binary.LittleEndian.AppendUint64(buf, msg.R)
	case ae.MsgElect:
		buf = binary.LittleEndian.AppendUint32(buf, msg.Bin)
		buf = appendString(buf, msg.Seg)
	case ae.MsgValue:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(msg.Level))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(msg.Index))
		buf = appendString(buf, msg.S)
	case baseline.MsgQuery:
		buf = append(buf, 0)
	case baseline.MsgReply:
		buf = appendString(buf, msg.S)
	case baseline.MsgBcast:
		buf = appendString(buf, msg.S)
	case baseline.MsgVote:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(msg.Round))
		buf = appendString(buf, msg.S)
	case simnet.CatchupReq:
		buf = binary.LittleEndian.AppendUint64(buf, msg.From)
		buf = binary.LittleEndian.AppendUint32(buf, msg.Max)
	case simnet.CatchupResp:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(msg.Records)))
		for _, r := range msg.Records {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r)))
			buf = append(buf, r...)
		}
	case simnet.LogOpen:
		buf = binary.LittleEndian.AppendUint64(buf, msg.Seq)
		buf = binary.LittleEndian.AppendUint32(buf, msg.Attempt)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(msg.Payloads)))
		for _, p := range msg.Payloads {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p)))
			buf = append(buf, p...)
		}
	case simnet.Ping:
		buf = binary.LittleEndian.AppendUint64(buf, msg.Nonce)
	case simnet.Pong:
		buf = binary.LittleEndian.AppendUint64(buf, msg.Nonce)
	case simnet.InstMsg:
		if _, nested := msg.Inner.(simnet.InstMsg); nested {
			return nil, fmt.Errorf("wire: nested InstMsg")
		}
		innerKind, err := KindByte(msg.Inner)
		if err != nil {
			return nil, err
		}
		buf = binary.LittleEndian.AppendUint32(buf, msg.Inst)
		buf = append(buf, innerKind)
		if buf, err = appendMessage(buf, msg.Inner); err != nil {
			return nil, err
		}
	case simnet.RelayMsg:
		innerKind, err := KindByte(msg.Inner)
		if err != nil {
			return nil, err
		}
		if innerKind == kindRelay || innerKind == kindInst {
			return nil, fmt.Errorf("wire: RelayMsg must not nest envelopes")
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(msg.Origin))
		buf = binary.LittleEndian.AppendUint32(buf, msg.Seq)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(msg.Dest))
		buf = append(buf, msg.TTL, innerKind)
		if buf, err = appendMessage(buf, msg.Inner); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("%w: %T", ErrUnknownMessage, m)
	}
	if got := len(buf) - start; got != m.WireSize() {
		return nil, fmt.Errorf("wire: %T encoded to %d bytes, WireSize says %d", m, got, m.WireSize())
	}
	return buf, nil
}

// Unmarshal decodes a payload given its kind byte. Decoded messages own
// their data (bit strings are copied out of payload).
func Unmarshal(kind byte, payload []byte) (simnet.Message, error) {
	d := NewCursor(payload)
	var m simnet.Message
	switch kind {
	case kindPush:
		m = core.MsgPush{S: d.str()}
	case kindPoll:
		s := d.str()
		m = core.MsgPoll{S: s, R: d.U64()}
	case kindPull:
		s := d.str()
		m = core.MsgPull{S: s, R: d.U64()}
	case kindFw1:
		x := int(d.U32())
		r := d.U64()
		m = core.MsgFw1{X: x, R: r, S: d.str()}
	case kindFw2:
		x := int(d.U32())
		r := d.U64()
		m = core.MsgFw2{X: x, R: r, S: d.str()}
	case kindAnswer:
		s := d.str()
		m = core.MsgAnswer{S: s, R: d.U64()}
	case kindElect:
		bin := d.U32()
		m = ae.MsgElect{Bin: bin, Seg: d.str()}
	case kindValue:
		level := int32(d.U32())
		index := int32(d.U32())
		m = ae.MsgValue{Level: level, Index: index, S: d.str()}
	case kindQuery:
		if pad := d.U8(); d.err == nil && pad != 0 {
			d.err = fmt.Errorf("wire: query padding byte %#x", pad)
		}
		m = baseline.MsgQuery{}
	case kindReply:
		m = baseline.MsgReply{S: d.str()}
	case kindBcast:
		m = baseline.MsgBcast{S: d.str()}
	case kindVote:
		round := int32(d.U32())
		m = baseline.MsgVote{Round: round, S: d.str()}
	case kindCatchupReq:
		from := d.U64()
		m = simnet.CatchupReq{From: from, Max: d.U32()}
	case kindCatchupResp:
		count := int(d.U32())
		var records [][]byte
		if d.err == nil && count > 0 {
			if count > len(payload) {
				return nil, fmt.Errorf("wire: catchup response claims %d records in %d bytes", count, len(payload))
			}
			records = make([][]byte, 0, count)
			for i := 0; i < count; i++ {
				records = append(records, d.Bytes())
			}
		}
		m = simnet.CatchupResp{Records: records}
	case kindLogOpen:
		seq := d.U64()
		attempt := d.U32()
		count := int(d.U32())
		var payloads [][]byte
		if d.err == nil && count > 0 {
			if count > len(payload) {
				return nil, fmt.Errorf("wire: log open claims %d payloads in %d bytes", count, len(payload))
			}
			payloads = make([][]byte, 0, count)
			for i := 0; i < count; i++ {
				payloads = append(payloads, d.Bytes())
			}
		}
		m = simnet.LogOpen{Seq: seq, Attempt: attempt, Payloads: payloads}
	case kindPing:
		m = simnet.Ping{Nonce: d.U64()}
	case kindPong:
		m = simnet.Pong{Nonce: d.U64()}
	case kindInst:
		inst := d.U32()
		innerKind := d.U8()
		if d.err != nil {
			return nil, fmt.Errorf("wire: decode kind %#x: %w", kind, d.err)
		}
		if innerKind == kindInst {
			return nil, fmt.Errorf("wire: nested InstMsg")
		}
		inner, err := Unmarshal(innerKind, payload[d.pos:])
		if err != nil {
			return nil, err
		}
		return simnet.InstMsg{Inst: inst, Inner: inner}, nil
	case kindRelay:
		origin := int(d.U32())
		seq := d.U32()
		dest := int(d.U32())
		ttl := d.U8()
		innerKind := d.U8()
		if d.err != nil {
			return nil, fmt.Errorf("wire: decode kind %#x: %w", kind, d.err)
		}
		if innerKind == kindRelay || innerKind == kindInst {
			return nil, fmt.Errorf("wire: RelayMsg must not nest envelopes")
		}
		inner, err := Unmarshal(innerKind, payload[d.pos:])
		if err != nil {
			return nil, err
		}
		return simnet.RelayMsg{Origin: origin, Seq: seq, Dest: dest, TTL: ttl, Inner: inner}, nil
	default:
		return nil, fmt.Errorf("%w: kind %#x", ErrUnknownMessage, kind)
	}
	if d.err != nil {
		return nil, fmt.Errorf("wire: decode kind %#x: %w", kind, d.err)
	}
	if d.pos != len(payload) {
		return nil, fmt.Errorf("wire: decode kind %#x: %d trailing bytes", kind, len(payload)-d.pos)
	}
	return m, nil
}

// EnvelopeOverhead is the frame size prepended by EncodeEnvelope; it equals
// the simnet meter's per-message overhead.
const EnvelopeOverhead = 9

// EncodeEnvelope frames a message for transport: from, to, kind, payload.
func EncodeEnvelope(from, to int, m simnet.Message) ([]byte, error) {
	kind, err := KindByte(m)
	if err != nil {
		return nil, err
	}
	payload, err := Marshal(m)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, EnvelopeOverhead+len(payload))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(from))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(to))
	buf = append(buf, kind)
	return append(buf, payload...), nil
}

// AppendTaggedFrame appends the transport frame of an instance-tagged
// envelope: the kindInst layout (inst u32, inner kind, inner payload)
// without materializing the InstMsg wrapper the frame represents.
// Decoding a tagged frame yields InstMsg, which the TCP cluster maps back
// onto the envelope header.
func AppendTaggedFrame(buf []byte, from, to int, inst uint32, m simnet.Message) ([]byte, error) {
	innerKind, err := KindByte(m)
	if err != nil {
		return buf, err
	}
	if innerKind == kindInst {
		return buf, fmt.Errorf("wire: nested InstMsg")
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(EnvelopeOverhead+5+m.WireSize()))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(from))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(to))
	buf = append(buf, kindInst)
	buf = binary.LittleEndian.AppendUint32(buf, inst)
	buf = append(buf, innerKind)
	return appendMessage(buf, m)
}

// AppendFrame appends the length-prefixed transport frame for one message
// — uint32 frame length, then the EncodeEnvelope layout — to buf and
// returns the extended slice. It lets transports recycle their write
// buffers (sync.Pool) instead of allocating per send.
func AppendFrame(buf []byte, from, to int, m simnet.Message) ([]byte, error) {
	kind, err := KindByte(m)
	if err != nil {
		return buf, err
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(EnvelopeOverhead+m.WireSize()))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(from))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(to))
	buf = append(buf, kind)
	return appendMessage(buf, m)
}

// DecodeEnvelope reverses EncodeEnvelope. The decoded message owns its
// data, so frame may be reused as soon as it returns.
func DecodeEnvelope(frame []byte) (from, to int, m simnet.Message, err error) {
	if len(frame) < EnvelopeOverhead {
		return 0, 0, nil, fmt.Errorf("wire: envelope too short: %d bytes", len(frame))
	}
	from = int(binary.LittleEndian.Uint32(frame[0:4]))
	to = int(binary.LittleEndian.Uint32(frame[4:8]))
	m, err = Unmarshal(frame[8], frame[9:])
	return from, to, m, err
}

// IsBatchFrame reports whether a transport frame (without its length
// prefix) is a link-level batch frame.
func IsBatchFrame(frame []byte) bool {
	return len(frame) >= EnvelopeOverhead && frame[8] == kindBatch
}

// maxBatchCount bounds the record count a batch frame may claim — defense
// against corrupt count prefixes, far above what any coalescing window
// produces.
const maxBatchCount = 1 << 16

// AppendBatchFrame coalesces several length-prefixed transport frames
// (the AppendFrame/AppendTaggedFrame layout) for one directed link into a
// single batch frame appended to buf: one length prefix and one from/to
// header for the whole batch, then one (recLen, kind, payload) record per
// input frame. All input frames must carry the same from/to — they are
// queued for one link — and none may itself be a batch frame.
func AppendBatchFrame(buf []byte, frames [][]byte) ([]byte, error) {
	if len(frames) == 0 {
		return buf, fmt.Errorf("wire: empty batch")
	}
	const frameHeader = 4 + EnvelopeOverhead // length prefix + from/to/kind
	total := EnvelopeOverhead + 4            // shared header + count
	for _, f := range frames {
		if len(f) < frameHeader {
			return buf, fmt.Errorf("wire: batch input frame too short: %d bytes", len(f))
		}
		if f[12] == kindBatch {
			return buf, fmt.Errorf("wire: nested batch frame")
		}
		if string(f[4:12]) != string(frames[0][4:12]) {
			return buf, fmt.Errorf("wire: batch mixes links")
		}
		total += 4 + len(f) - 12 // recLen prefix + kind byte + payload
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(total))
	buf = append(buf, frames[0][4:12]...) // from, to
	buf = append(buf, kindBatch)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(frames)))
	for _, f := range frames {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(f)-12))
		buf = append(buf, f[12:]...)
	}
	return buf, nil
}

// DecodeBatchAppend decodes a batch frame (without its length prefix) into
// envelopes appended to dst. The decoded payloads own their data. Instance-
// tagged records surface with the tag hoisted into Envelope.Inst/Tagged,
// ready for fabric injection. On error dst is returned unchanged: a batch
// decodes entirely or not at all. The bool parameter is ignored; it is
// kept only until the benchmark's probe stops passing it.
func DecodeBatchAppend(dst []simnet.Envelope, frame []byte, _ bool) ([]simnet.Envelope, error) {
	if !IsBatchFrame(frame) {
		return dst, fmt.Errorf("wire: not a batch frame")
	}
	from := int(binary.LittleEndian.Uint32(frame[0:4]))
	to := int(binary.LittleEndian.Uint32(frame[4:8]))
	d := Cursor{buf: frame, pos: EnvelopeOverhead}
	count := int(d.U32())
	if d.err != nil {
		return dst, fmt.Errorf("wire: batch count: %w", d.err)
	}
	if count == 0 || count > maxBatchCount {
		return dst, fmt.Errorf("wire: batch claims %d records", count)
	}
	mark := len(dst)
	for i := 0; i < count; i++ {
		rec := d.Take(int(d.U32()))
		if d.err != nil {
			return dst[:mark], fmt.Errorf("wire: batch record %d: %w", i, d.err)
		}
		if len(rec) < 1 {
			return dst[:mark], fmt.Errorf("wire: batch record %d: empty", i)
		}
		if rec[0] == kindBatch {
			return dst[:mark], fmt.Errorf("wire: nested batch frame")
		}
		m, err := Unmarshal(rec[0], rec[1:])
		if err != nil {
			return dst[:mark], fmt.Errorf("wire: batch record %d: %w", i, err)
		}
		e := simnet.Envelope{From: from, To: to, Msg: m}
		if im, ok := m.(simnet.InstMsg); ok {
			e.Msg, e.Inst, e.Tagged = im.Inner, im.Inst, true
		}
		dst = append(dst, e)
	}
	if d.pos != len(frame) {
		return dst[:mark], fmt.Errorf("wire: batch frame: %d trailing bytes", len(frame)-d.pos)
	}
	return dst, nil
}

// appendString encodes a bit string: uint16 bit length + packed bytes.
func appendString(buf []byte, s bitstring.String) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(s.Len()))
	return append(buf, s.Bytes()...)
}

// AppendBitString appends the wire encoding of a bit string — uint16 bit
// length + packed bytes, the same layout every protocol message uses —
// for external codecs built on this package's formats (internal/store's
// record encoding).
func AppendBitString(buf []byte, s bitstring.String) []byte {
	return appendString(buf, s)
}

// DecodeBitString decodes a wire-encoded bit string from the front of
// buf, returning the string and the number of bytes consumed. The string
// owns its data.
func DecodeBitString(buf []byte) (bitstring.String, int, error) {
	d := NewCursor(buf)
	s := d.str()
	if d.err != nil {
		return bitstring.String{}, 0, d.err
	}
	return s, d.pos, nil
}

// Cursor is a read cursor with sticky errors over one frame payload: after
// the first short read every accessor returns the zero value and Err
// reports what was missing. It is the tree's one binary cursor — the mesh
// codec here and the client/admin codec (internal/server) decode through
// it.
type Cursor struct {
	buf []byte
	pos int
	err error
}

// NewCursor returns a cursor at the start of buf.
func NewCursor(buf []byte) Cursor { return Cursor{buf: buf} }

// Err returns the first decode error; Rest the number of unread bytes.
func (d *Cursor) Err() error { return d.err }
func (d *Cursor) Rest() int  { return len(d.buf) - d.pos }

// Take consumes n bytes and returns them as a view into the frame.
func (d *Cursor) Take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.pos+n > len(d.buf) {
		d.err = fmt.Errorf("truncated at offset %d (need %d of %d)", d.pos, n, len(d.buf))
		return nil
	}
	out := d.buf[d.pos : d.pos+n]
	d.pos += n
	return out
}

func (d *Cursor) U8() byte {
	b := d.Take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *Cursor) U32() uint32 {
	b := d.Take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *Cursor) U64() uint64 {
	b := d.Take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Bytes decodes a u32-length-prefixed byte slice, copying it out of the
// frame buffer (transports reuse frame buffers across messages).
func (d *Cursor) Bytes() []byte {
	n := int(d.U32())
	b := d.Take(n)
	if d.err != nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// str decodes a bit string (u16 bit length + packed bytes), copying it out
// of the frame.
func (d *Cursor) str() bitstring.String {
	header := d.Take(2)
	if d.err != nil {
		return bitstring.String{}
	}
	nbits := int(binary.LittleEndian.Uint16(header))
	need := (nbits + 7) / 8
	packed := d.Take(need)
	if d.err != nil {
		return bitstring.String{}
	}
	// The encoder only emits canonical strings (clear tail bits), so a set
	// excess bit is corruption: reject instead of silently masking — decode
	// then re-encode must reproduce the input bytes exactly.
	if rem := nbits % 8; rem != 0 && need > 0 && packed[need-1]&^(byte(1<<rem)-1) != 0 {
		d.err = fmt.Errorf("wire: non-canonical bit string tail")
		return bitstring.String{}
	}
	s, err := bitstring.FromBytes(packed, nbits)
	if err != nil {
		d.err = err
	}
	return s
}

// Package server hosts one slice of a fast-BA decision log as a
// standalone OS process: the balogd daemon. A cluster of D daemons shares
// one protocol population of n = D·k nodes — each daemon runs k real
// protocol nodes over the supervised TCP mesh (internal/netrun partial
// hosting) — plus one durable WAL (internal/store), a catch-up listener,
// a client/admin listener (connection mux over the frame codec below) and
// a Prometheus /metrics endpoint (internal/metrics).
//
// The protocol geometry needs n ≥ 8 and tolerates < n/3 silent nodes, so
// a ≥4-daemon cluster keeps committing while any single daemon is down
// (k/n = 1/D ≤ 1/4 silenced), and a restarted daemon closes its gap
// through catch-up transfer — the multi-process composition of PR 6
// (durable store + catch-up) and PR 7 (supervised reconnecting links).
package server

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"

	"github.com/fastba/fastba/internal/wire"
)

// Client/admin frame kinds. Like internal/wire's kind bytes they are a
// serialized contract: values are never reused. The 0xA0 block is
// disjoint from the node-mesh kinds (0x01–0x80), so a client frame
// accidentally written to a mesh listener can never be misparsed as
// protocol traffic.
const (
	// KindHello/KindHelloAck open a client session: the daemon identifies
	// itself, its epoch, its leadership and the leader's client address.
	KindHello    byte = 0xA0
	KindHelloAck byte = 0xA1
	// KindAppend/KindAppendAck is the ingest path: one client payload per
	// request, resolved with the committed sequence number (or an error
	// code — overload, not-leader, shutdown).
	KindAppend    byte = 0xA2
	KindAppendAck byte = 0xA3
	// KindStatus/KindStatusAck is the one-shot health/progress probe the
	// harness and the status ticker of peers use.
	KindStatus    byte = 0xA4
	KindStatusAck byte = 0xA5
	// KindJoin/KindJoinAck is the membership handshake: epoch-stamped,
	// rejecting stale epochs. Daemons re-join periodically, so the
	// handshake doubles as a membership-level liveness signal.
	KindJoin    byte = 0xA6
	KindJoinAck byte = 0xA7
	// KindLeave/KindLeaveAck is the advisory graceful-departure note a
	// daemon sends its peers on shutdown.
	KindLeave    byte = 0xA8
	KindLeaveAck byte = 0xA9
)

// Response codes.
const (
	CodeOK byte = iota
	// CodeOverload: admission control shed the request (bounded per-client
	// queue was full). The SDK surfaces this as ErrOverload.
	CodeOverload
	// CodeNotLeader: appends must go to the leader; the hello ack carries
	// its address.
	CodeNotLeader
	// CodeShutdown: the daemon is draining; the request was not accepted.
	CodeShutdown
	// CodeStaleEpoch: the peer's configuration epoch is older than ours —
	// a misconfigured or ancient daemon that must not rejoin the set.
	CodeStaleEpoch
	// CodeFailed: the replica failed (instance timeout, store error).
	CodeFailed
)

// CodeString names a response code for errors and logs.
func CodeString(code byte) string {
	switch code {
	case CodeOK:
		return "ok"
	case CodeOverload:
		return "overload"
	case CodeNotLeader:
		return "not-leader"
	case CodeShutdown:
		return "shutdown"
	case CodeStaleEpoch:
		return "stale-epoch"
	case CodeFailed:
		return "failed"
	default:
		return fmt.Sprintf("code-%#x", code)
	}
}

// maxClientFrame bounds accepted client frames (a payload plus framing
// slack; the store's per-record cap is far larger, but a single client
// payload this size is a protocol abuse, not a workload).
const maxClientFrame = 1 << 20

// Hello opens a session.
type Hello struct{}

// HelloAck identifies the daemon to a client.
type HelloAck struct {
	Node       uint32 // daemon index
	Epoch      uint64
	Leader     bool
	LeaderAddr string // the leader's client address ("" when unknown)
	Frontier   uint64
}

// Append submits one payload under a client-chosen request id.
type Append struct {
	Req     uint64
	Payload []byte
}

// AppendAck resolves one append.
type AppendAck struct {
	Req  uint64
	Code byte
	// Seq is the committed sequence number (valid when Code == CodeOK).
	Seq uint64
	// LatencyNs is the daemon-side admission-to-commit latency.
	LatencyNs int64
}

// Status asks for a progress snapshot.
type Status struct{}

// StatusAck is the daemon's progress snapshot.
type StatusAck struct {
	Node       uint32
	Epoch      uint64
	Leader     bool
	Frontier   uint64
	Recovered  uint64 // entries seeded from the WAL at startup
	Repaired   uint64 // entries committed through peer catch-up repair
	PeersAlive uint32
	Sessions   uint32
}

// Join is the epoch-stamped membership handshake.
type Join struct {
	Epoch uint64
	Node  uint32
}

// JoinAck answers a join.
type JoinAck struct {
	Code       byte
	Epoch      uint64
	PeersAlive uint32
}

// Leave is the advisory departure note.
type Leave struct {
	Epoch uint64
	Node  uint32
}

// LeaveAck acknowledges a leave.
type LeaveAck struct {
	Code byte
}

// AppendClientMsg appends one framed client/admin message to buf:
// u32 frame length (kind + payload), kind byte, payload.
func AppendClientMsg(buf []byte, msg any) ([]byte, error) {
	mark := len(buf)
	buf = append(buf, 0, 0, 0, 0) // frame length, patched below
	switch m := msg.(type) {
	case Hello:
		buf = append(buf, KindHello)
	case HelloAck:
		buf = append(buf, KindHelloAck)
		buf = binary.LittleEndian.AppendUint32(buf, m.Node)
		buf = binary.LittleEndian.AppendUint64(buf, m.Epoch)
		buf = appendBool(buf, m.Leader)
		buf = appendLString(buf, m.LeaderAddr)
		buf = binary.LittleEndian.AppendUint64(buf, m.Frontier)
	case Append:
		buf = append(buf, KindAppend)
		buf = binary.LittleEndian.AppendUint64(buf, m.Req)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Payload)))
		buf = append(buf, m.Payload...)
	case AppendAck:
		buf = append(buf, KindAppendAck)
		buf = binary.LittleEndian.AppendUint64(buf, m.Req)
		buf = append(buf, m.Code)
		buf = binary.LittleEndian.AppendUint64(buf, m.Seq)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(m.LatencyNs))
	case Status:
		buf = append(buf, KindStatus)
	case StatusAck:
		buf = append(buf, KindStatusAck)
		buf = binary.LittleEndian.AppendUint32(buf, m.Node)
		buf = binary.LittleEndian.AppendUint64(buf, m.Epoch)
		buf = appendBool(buf, m.Leader)
		buf = binary.LittleEndian.AppendUint64(buf, m.Frontier)
		buf = binary.LittleEndian.AppendUint64(buf, m.Recovered)
		buf = binary.LittleEndian.AppendUint64(buf, m.Repaired)
		buf = binary.LittleEndian.AppendUint32(buf, m.PeersAlive)
		buf = binary.LittleEndian.AppendUint32(buf, m.Sessions)
	case Join:
		buf = append(buf, KindJoin)
		buf = binary.LittleEndian.AppendUint64(buf, m.Epoch)
		buf = binary.LittleEndian.AppendUint32(buf, m.Node)
	case JoinAck:
		buf = append(buf, KindJoinAck)
		buf = append(buf, m.Code)
		buf = binary.LittleEndian.AppendUint64(buf, m.Epoch)
		buf = binary.LittleEndian.AppendUint32(buf, m.PeersAlive)
	case Leave:
		buf = append(buf, KindLeave)
		buf = binary.LittleEndian.AppendUint64(buf, m.Epoch)
		buf = binary.LittleEndian.AppendUint32(buf, m.Node)
	case LeaveAck:
		buf = append(buf, KindLeaveAck)
		buf = append(buf, m.Code)
	default:
		return buf[:mark], fmt.Errorf("server: unknown client message %T", msg)
	}
	binary.LittleEndian.PutUint32(buf[mark:mark+4], uint32(len(buf)-mark-4))
	return buf, nil
}

// WriteClientMsg frames and writes one message. The caller serializes
// writers per connection.
func WriteClientMsg(conn net.Conn, msg any) error {
	buf, err := AppendClientMsg(nil, msg)
	if err != nil {
		return err
	}
	_, err = conn.Write(buf)
	return err
}

// ReadClientMsg reads and decodes one framed client/admin message.
func ReadClientMsg(r io.Reader) (any, error) {
	var header [4]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		return nil, err
	}
	size := int(binary.LittleEndian.Uint32(header[:]))
	if size == 0 || size > maxClientFrame {
		return nil, fmt.Errorf("server: client frame size %d", size)
	}
	frame := make([]byte, size)
	if _, err := io.ReadFull(r, frame); err != nil {
		return nil, err
	}
	return decodeClientMsg(frame)
}

func decodeClientMsg(frame []byte) (any, error) {
	d := wire.NewCursor(frame[1:])
	var msg any
	switch kind := frame[0]; kind {
	case KindHello:
		msg = Hello{}
	case KindHelloAck:
		m := HelloAck{Node: d.U32(), Epoch: d.U64(), Leader: d.U8() != 0}
		m.LeaderAddr = lstring(&d)
		m.Frontier = d.U64()
		msg = m
	case KindAppend:
		msg = Append{Req: d.U64(), Payload: d.Bytes()}
	case KindAppendAck:
		msg = AppendAck{Req: d.U64(), Code: d.U8(), Seq: d.U64(), LatencyNs: int64(d.U64())}
	case KindStatus:
		msg = Status{}
	case KindStatusAck:
		msg = StatusAck{
			Node: d.U32(), Epoch: d.U64(), Leader: d.U8() != 0, Frontier: d.U64(),
			Recovered: d.U64(), Repaired: d.U64(), PeersAlive: d.U32(), Sessions: d.U32(),
		}
	case KindJoin:
		msg = Join{Epoch: d.U64(), Node: d.U32()}
	case KindJoinAck:
		msg = JoinAck{Code: d.U8(), Epoch: d.U64(), PeersAlive: d.U32()}
	case KindLeave:
		msg = Leave{Epoch: d.U64(), Node: d.U32()}
	case KindLeaveAck:
		msg = LeaveAck{Code: d.U8()}
	default:
		return nil, fmt.Errorf("server: unknown client frame kind %#x", kind)
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("server: decode client frame %#x: %w", frame[0], err)
	}
	if d.Rest() != 0 {
		return nil, fmt.Errorf("server: decode client frame %#x: %d trailing bytes", frame[0], d.Rest())
	}
	return msg, nil
}

func appendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func appendLString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

// lstring decodes a u16-length-prefixed string.
func lstring(d *wire.Cursor) string {
	b := d.Take(2)
	if b == nil {
		return ""
	}
	return string(d.Take(int(binary.LittleEndian.Uint16(b))))
}

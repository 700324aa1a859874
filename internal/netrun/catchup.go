package netrun

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"github.com/fastba/fastba/internal/simnet"
	"github.com/fastba/fastba/internal/wire"
)

// Catch-up state transfer over TCP: the cluster can serve its committed
// prefix on a dedicated listener, and a restarted node fetches the gap
// past its recovered WAL frontier with FetchCatchup. Frames are the same
// length-prefixed wire envelopes the node mesh uses (kindCatchupReq /
// kindCatchupResp); records are opaque encoded bytes.

const (
	// maxCatchupFrame bounds catch-up frames: one store record (up to its
	// own 1<<26 cap) plus framing slack — larger than the node mesh's
	// maxFrame because a response chunk carries whole batches.
	maxCatchupFrame = 1<<26 + 1024
	// catchupChunk is the server's default records-per-handler-call.
	catchupChunk = 256
)

// ServeCatchup opens a dedicated catch-up listener answering
// CatchupReq frames from handler, and returns its address. The listener
// closes with the cluster.
func (c *Cluster) ServeCatchup(handler simnet.CatchupHandler) (string, error) {
	return c.ServeCatchupOn("127.0.0.1:0", handler)
}

// ServeCatchupOn is ServeCatchup at a fixed listen address — the daemon
// topology, where peers must know the catch-up endpoint before this
// process exists (a derived port, not an ephemeral one).
func (c *Cluster) ServeCatchupOn(addr string, handler simnet.CatchupHandler) (string, error) {
	select {
	case <-c.closing:
		return "", errors.New("netrun: cluster closing")
	default:
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("netrun: catchup listen: %w", err)
	}
	c.mu.Lock()
	c.catchupLns = append(c.catchupLns, ln)
	c.mu.Unlock()
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			// Track the connection while it is served, so Close can unblock
			// the serving goroutine even if the peer never disconnects. Close
			// marks closing before it walks the set under mu, so a connection
			// accepted after that is closed here instead of tracked.
			c.mu.Lock()
			if c.isClosing() {
				c.mu.Unlock()
				_ = conn.Close()
				return
			}
			c.catchupConns[conn] = struct{}{}
			c.mu.Unlock()
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				serveCatchupConn(conn, handler)
				c.mu.Lock()
				delete(c.catchupConns, conn)
				c.mu.Unlock()
			}()
		}
	}()
	return ln.Addr().String(), nil
}

// serveCatchupConn answers catch-up requests on one connection: for each
// request, stream the committed records past its frontier in bounded
// chunks, then an empty terminator chunk.
func serveCatchupConn(conn net.Conn, handler simnet.CatchupHandler) {
	defer conn.Close()
	for {
		msg, err := readCatchupFrame(conn)
		if err != nil {
			return
		}
		req, ok := msg.(simnet.CatchupReq)
		if !ok {
			return // not speaking the catch-up protocol: drop the peer
		}
		from := req.From
		max := catchupChunk
		if req.Max > 0 && int(req.Max) < max {
			max = int(req.Max)
		}
		for {
			recs := handler(from, max)
			if len(recs) == 0 {
				break
			}
			// Re-chunk by byte budget: a handler chunk can exceed a frame.
			for start := 0; start < len(recs); {
				end, size := start, 0
				for end < len(recs) {
					rs := 4 + len(recs[end])
					if end > start && size+rs > maxFrame {
						break
					}
					size += rs
					end++
				}
				if err := writeCatchupFrame(conn, simnet.CatchupResp{Records: recs[start:end]}); err != nil {
					return
				}
				start = end
			}
			from += uint64(len(recs))
		}
		if err := writeCatchupFrame(conn, simnet.CatchupResp{}); err != nil {
			return
		}
	}
}

// FetchCatchup dials a peer's catch-up listener and fetches every
// committed record from seq from onward, in order. dialTimeout bounds the
// connect attempt and the wait for each response frame, so a peer that
// accepts and then stays silent fails the fetch instead of blocking it; 0
// or negative selects the default (2s).
func FetchCatchup(addr string, from uint64, dialTimeout time.Duration) ([][]byte, error) {
	if dialTimeout <= 0 {
		dialTimeout = 2 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("netrun: catchup dial: %w", err)
	}
	defer conn.Close()
	if err := writeCatchupFrame(conn, simnet.CatchupReq{From: from}); err != nil {
		return nil, fmt.Errorf("netrun: catchup request: %w", err)
	}
	var out [][]byte
	for {
		if err := conn.SetReadDeadline(time.Now().Add(dialTimeout)); err != nil {
			return nil, fmt.Errorf("netrun: catchup response: %w", err)
		}
		msg, err := readCatchupFrame(conn)
		if err != nil {
			return nil, fmt.Errorf("netrun: catchup response: %w", err)
		}
		resp, ok := msg.(simnet.CatchupResp)
		if !ok {
			return nil, fmt.Errorf("netrun: catchup peer sent %T", msg)
		}
		if len(resp.Records) == 0 {
			return out, nil
		}
		out = append(out, resp.Records...)
	}
}

// writeCatchupFrame writes one length-prefixed wire envelope (from/to 0:
// catch-up is point-to-point, not node-addressed).
func writeCatchupFrame(conn net.Conn, m simnet.Message) error {
	buf, err := wire.AppendFrame(nil, 0, 0, m)
	if err != nil {
		return err
	}
	_, err = conn.Write(buf)
	return err
}

// readCatchupFrame reads and decodes one length-prefixed wire envelope.
func readCatchupFrame(conn net.Conn) (simnet.Message, error) {
	var header [4]byte
	if _, err := io.ReadFull(conn, header[:]); err != nil {
		return nil, err
	}
	size := binary.LittleEndian.Uint32(header[:])
	if size == 0 || size > maxCatchupFrame {
		return nil, fmt.Errorf("netrun: catchup frame size %d", size)
	}
	frame := make([]byte, size)
	if _, err := io.ReadFull(conn, frame); err != nil {
		return nil, err
	}
	_, _, msg, err := wire.DecodeEnvelope(frame)
	return msg, err
}

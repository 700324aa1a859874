package store

import (
	"encoding/binary"
	"fmt"

	"github.com/fastba/fastba/internal/bitstring"
	"github.com/fastba/fastba/internal/wire"
)

// Record is one durable committed decision-log entry — the store's unit of
// appending, snapshotting and catch-up transfer. It mirrors
// pipeline.Entry's order-independent fields: everything the cross-instance
// oracles and the conformance digests judge, nothing the concurrent
// runtimes fail to reproduce.
type Record struct {
	// Seq is the instance sequence number; a store holds contiguous seqs
	// from 0.
	Seq uint64
	// Value is the decided value (the batch digest the instance agreed on).
	Value bitstring.String
	// Payloads are the client payloads folded into the instance.
	Payloads [][]byte
	// Deciders, Correct, DistinctValues and CertDeficits are the commit-time
	// oracle counters.
	Deciders       int
	Correct        int
	DistinctValues int
	CertDeficits   int
	// MatchesProposal is the validity probe's verdict.
	MatchesProposal bool
	// OpenedNs and CommittedNs bound the instance's lifetime (Unix nanos),
	// preserved so recovered entries keep their latency accounting.
	OpenedNs    int64
	CommittedNs int64
}

// record payload layout (little-endian), framed by the segment writer:
//
//	seq u64 | value bitstring (wire codec: nbits u16 + packed bytes)
//	| deciders u32 | correct u32 | distinct u32 | certdef u32 | flags u8
//	| opened i64 | committed i64 | npayloads u32 | { plen u32 | bytes }*

const flagMatchesProposal = 0x01

// AppendRecord appends r's payload encoding to buf (the wire-codec idiom:
// callers recycle buffers across appends).
func AppendRecord(buf []byte, r Record) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, r.Seq)
	buf = wire.AppendBitString(buf, r.Value)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Deciders))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Correct))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.DistinctValues))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.CertDeficits))
	var flags byte
	if r.MatchesProposal {
		flags |= flagMatchesProposal
	}
	buf = append(buf, flags)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.OpenedNs))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.CommittedNs))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Payloads)))
	for _, p := range r.Payloads {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p)))
		buf = append(buf, p...)
	}
	return buf
}

// DecodeRecord reverses AppendRecord. The returned record owns its memory:
// payload bytes are copied out of buf, so callers may recycle the frame
// buffer.
func DecodeRecord(buf []byte) (Record, error) {
	var r Record
	if len(buf) < 8 {
		return r, fmt.Errorf("store: record truncated at seq")
	}
	r.Seq = binary.LittleEndian.Uint64(buf)
	buf = buf[8:]
	s, n, err := wire.DecodeBitString(buf)
	if err != nil {
		return r, fmt.Errorf("store: record value: %w", err)
	}
	r.Value = s
	buf = buf[n:]
	if len(buf) < 4*4+1+8+8+4 {
		return r, fmt.Errorf("store: record truncated at counters")
	}
	r.Deciders = int(binary.LittleEndian.Uint32(buf[0:4]))
	r.Correct = int(binary.LittleEndian.Uint32(buf[4:8]))
	r.DistinctValues = int(binary.LittleEndian.Uint32(buf[8:12]))
	r.CertDeficits = int(binary.LittleEndian.Uint32(buf[12:16]))
	flags := buf[16]
	r.MatchesProposal = flags&flagMatchesProposal != 0
	r.OpenedNs = int64(binary.LittleEndian.Uint64(buf[17:25]))
	r.CommittedNs = int64(binary.LittleEndian.Uint64(buf[25:33]))
	npay := int(binary.LittleEndian.Uint32(buf[33:37]))
	buf = buf[37:]
	if npay < 0 || npay > len(buf) {
		return r, fmt.Errorf("store: record claims %d payloads in %d bytes", npay, len(buf))
	}
	if npay > 0 {
		r.Payloads = make([][]byte, npay)
		for i := 0; i < npay; i++ {
			if len(buf) < 4 {
				return r, fmt.Errorf("store: record truncated at payload %d length", i)
			}
			plen := int(binary.LittleEndian.Uint32(buf))
			buf = buf[4:]
			if plen < 0 || plen > len(buf) {
				return r, fmt.Errorf("store: record payload %d claims %d of %d bytes", i, plen, len(buf))
			}
			r.Payloads[i] = append([]byte(nil), buf[:plen]...)
			buf = buf[plen:]
		}
	}
	if len(buf) != 0 {
		return r, fmt.Errorf("store: record has %d trailing bytes", len(buf))
	}
	return r, nil
}

// DecodeRun decodes one fetched catch-up chunk and returns its contiguous
// run from sequence from: the records that decode and carry exactly the
// sequences from, from+1, …. The error says why the run ended before the
// chunk did — an undecodable record or a gap. A caller that needs the
// whole chunk (a log opening on a peer's prefix) treats it as fatal; one
// that retries later (a running daemon's repair scan) keeps the run and
// drops the rest.
func DecodeRun(from uint64, encoded [][]byte) ([]Record, error) {
	run := make([]Record, 0, len(encoded))
	for _, b := range encoded {
		r, err := DecodeRecord(b)
		if err != nil {
			return run, fmt.Errorf("store: catch-up record: %w", err)
		}
		if want := from + uint64(len(run)); r.Seq != want {
			return run, fmt.Errorf("store: catch-up peer sent seq %d, expected %d", r.Seq, want)
		}
		run = append(run, r)
	}
	return run, nil
}

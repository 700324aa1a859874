package pipeline

import (
	"crypto/sha256"
	"encoding/binary"

	"github.com/fastba/fastba/internal/bitstring"
	"github.com/fastba/fastba/internal/prng"
	"github.com/fastba/fastba/internal/simnet"
)

// The seeded derivations every host of the engine shares. Engines that
// each host a slice of one population — the daemons of a cluster — must
// agree bit-for-bit on the corruption set, each instance's value digest
// and each node's initial belief, otherwise their committed logs diverge:
// the derivations are pure functions of (seed, geometry, inputs), and
// each is evaluated over the whole population wherever it runs.

// CorruptSet derives the log's non-adaptive fail-silent corruption set:
// the first ⌊frac·n⌋ entries of a seeded permutation of [n].
func CorruptSet(seed uint64, n int, frac float64) []bool {
	corrupt := make([]bool, n)
	src := prng.New(prng.DeriveKey(seed, "log/corrupt", 0))
	t := int(frac * float64(n))
	for _, id := range src.Perm(n)[:t] {
		corrupt[id] = true
	}
	return corrupt
}

// BatchValue derives instance seq's proposal digest from the batch: the
// first stringBits bits of SHA-256 over (seed, seq, length-prefixed
// payloads). All correct runtimes derive the same value for the same
// inputs, which is what makes committed logs comparable across transports
// and across processes.
func BatchValue(seed uint64, stringBits int, seq uint64, payloads [][]byte) bitstring.String {
	h := sha256.New()
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:8], seed)
	binary.LittleEndian.PutUint64(hdr[8:16], seq)
	h.Write(hdr[:])
	var lenBuf [8]byte
	for _, p := range payloads {
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(p)))
		h.Write(lenBuf[:])
		h.Write(p)
	}
	sum := h.Sum(nil)
	s, err := bitstring.FromBytes(sum, stringBits)
	if err != nil {
		panic("pipeline: internal: " + err.Error()) // unreachable: SHA-256 is 32 bytes, StringBits ≤ 256 validated sizes
	}
	return s
}

// OpenMsgs derives the per-node MsgOpen beliefs of instance seq: entry id
// is the open message node id starts from (nil for corrupt nodes, which
// ignore opens). The PRNG draw order — one knowledge draw per correct
// node, in id order, none at all when knowFrac ≥ 1 — is part of the
// cross-runtime contract: a daemon hosting only a slice of the nodes still
// evaluates every id so its local beliefs match what a single process
// would have injected. The attempt stamps reopens of a stalled instance;
// beliefs are derived from seq alone, so every attempt injects the same
// initial strings.
func OpenMsgs(seed uint64, stringBits int, knowFrac float64, corrupt []bool, seq uint64, attempt uint32, value bitstring.String) []simnet.Message {
	src := prng.New(prng.DeriveKey(seed, "log/believe", seq))
	junk := bitstring.Random(src.Fork(1), stringBits)
	// Two boxed opens (knower and junk-holder) instead of one boxing
	// allocation per node.
	var openValue simnet.Message = MsgOpen{Seq: seq, Attempt: attempt, Initial: value}
	var openJunk simnet.Message = MsgOpen{Seq: seq, Attempt: attempt, Initial: junk}
	msgs := make([]simnet.Message, len(corrupt))
	for id := range corrupt {
		if corrupt[id] {
			continue
		}
		msg := openJunk
		if knowFrac >= 1 || src.Float64() < knowFrac {
			msg = openValue
		}
		msgs[id] = msg
	}
	return msgs
}

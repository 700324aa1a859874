package simnet

import "sync"

// The round log is how the SyncRunner holds messages in flight. A round of
// the paper's experiment is about a million sends (n·d³ Fw1 tuples in about
// n·d·min(n, d²) messages at once), and a slice of Envelopes that size costs
// more to grow, zero and copy than the protocol costs to run. The log is a
// list of fixed-size blocks of compact send records, appended in send
// order, read back in the same order one round later, and handed block by
// block to a package-level pool that the next round, and the next run,
// draw from (DESIGN.md §4.2).
//
// The runner keeps one log per (sending slot, receiving slot) pair, so that
// the workers of a round append and read without sharing a log. The serial
// order of a round is then restored from two numbers: each slot numbers its
// own sends (sendRec.seq), and each delivery that sent anything leaves a
// cause — the delivery's index in its round and the first of its seq
// numbers. Ordering the causes of all slots by that index gives every
// record its index in the next round (numbering), which is the order the
// serial runner appended it in.

// sendRec is one message in flight: 32 bytes against the Envelope's 56. The
// metered size is computed once, at send, and charged again at delivery;
// what an Envelope carries beyond these fields (delivery round, instance
// tag, transport buffer, scheduler sequence number) the synchronous runner
// keeps elsewhere or never reads.
type sendRec struct {
	from, to int32
	seq      int32 // the record's place among its slot's sends of the round
	size     int32 // metered bytes: payload + envelopeOverhead
	msg      Message
}

// logBlock is the number of records per block (128 KiB): large enough that
// the per-block bookkeeping vanishes against the per-record work, small
// enough that a run of a few hundred messages holds a few hundred KiB.
const logBlock = 4096

type recBlock [logBlock]sendRec

// blockPool recycles round-log blocks across rounds and across runs, as
// batchPool does for mailbox batches. Blocks are cleared before they are
// returned, so the pool never keeps a message alive.
var blockPool = sync.Pool{New: func() any { return new(recBlock) }}

// roundLog is an append-only sequence of send records. A record lives from
// its send until the end of the round that delivers it.
type roundLog struct {
	blocks []*recBlock
	n      int // records appended
}

func (l *roundLog) append(rec sendRec) {
	i := l.n % logBlock
	if i == 0 {
		l.blocks = append(l.blocks, blockPool.Get().(*recBlock))
	}
	l.blocks[len(l.blocks)-1][i] = rec
	l.n++
}

// span returns the records held by block b, in append order.
func (l *roundLog) span(b int) []sendRec {
	if b == len(l.blocks)-1 {
		return l.blocks[b][:l.n-b*logBlock]
	}
	return l.blocks[b][:]
}

// release empties the log: every block, its used records cleared, goes to
// spare, which the caller hands back to the pool. The block list keeps its
// storage.
func (l *roundLog) release(spare *[]*recBlock) {
	for b, blk := range l.blocks {
		clear(l.span(b))
		*spare = append(*spare, blk)
		l.blocks[b] = nil
	}
	l.blocks = l.blocks[:0]
	l.n = 0
}

// cause is one delivery that sent something: key is the delivery's index
// in its round until the round is numbered, and from then on the offset
// that turns the seq of each of its records into the record's index in the
// next round.
type cause struct {
	first int32 // seq of the delivery's first send
	key   int32
}

// numbering maps seq numbers of one slot, taken in increasing order, to
// indices in the round: a cursor over the slot's numbered causes.
type numbering struct {
	causes []cause
	c      int
}

func (n *numbering) index(seq int32) int32 {
	for n.c+1 < len(n.causes) && n.causes[n.c+1].first <= seq {
		n.c++
	}
	return seq + n.causes[n.c].key
}

// source is one log a slot delivers from, read in append order with the
// index of its next record at hand.
type source struct {
	log  *roundLog
	num  numbering
	b, i int   // the next record: block b, position i
	idx  int32 // its index in the round
}

func (s *source) start(l *roundLog, causes []cause) {
	*s = source{log: l, num: numbering{causes: causes}}
	s.idx = s.num.index(l.blocks[0][0].seq)
}

// deliverUntil delivers the source's records to d, in order, up to the
// first whose index is limit or more. It reports whether records remain.
func (s *source) deliverUntil(d *slot, limit int32) bool {
	for ; s.b < len(s.log.blocks); s.b, s.i = s.b+1, 0 {
		recs := s.log.span(s.b)
		for ; s.i < len(recs); s.i++ {
			rec := &recs[s.i]
			idx := s.num.index(rec.seq)
			if idx >= limit {
				s.idx = idx
				return true
			}
			d.deliver(rec, idx)
		}
	}
	return false
}

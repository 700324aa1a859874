package simnet

import "sync"

// The round log is how the SyncRunner holds messages in flight. A round of
// the paper's experiment is about a million sends (n·d³ Fw1 tuples in about
// n·d·min(n, d²) messages at once), and a slice of Envelopes that size costs
// more to grow, zero and copy than the protocol costs to run. The log is a list of fixed-size blocks of compact send
// records, appended in send order, read back in the same order one round
// later, and handed block by block to a package-level pool that the next
// round, and the next run, draw from (DESIGN.md §4.2).

// sendRec is one message in flight: 32 bytes against the Envelope's 72. The
// metered size is computed once, at send, and charged again at delivery;
// what an Envelope carries beyond these fields (instance tag, transport
// buffer, scheduler sequence number) the synchronous runner never reads.
type sendRec struct {
	from, to int32
	due      int32 // the round that delivers the record
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

// at returns record i.
func (l *roundLog) at(i int) *sendRec { return &l.blocks[i/logBlock][i%logBlock] }

// release empties the log: every block goes back to the pool with its used
// records cleared. The block list keeps its storage.
func (l *roundLog) release() {
	for b, blk := range l.blocks {
		clear(l.span(b))
		blockPool.Put(blk)
		l.blocks[b] = nil
	}
	l.blocks = l.blocks[:0]
	l.n = 0
}

package core

import (
	"slices"

	"github.com/fastba/fastba/internal/intern"
)

// reqTable is a node's pull-phase state, Algorithms 2 and 3, kept per
// requester x (DESIGN.md §4.3 "Requester table"). A node receives about
// d·min(n, d²) Fw1 messages per agreement, one per (voucher, request), and
// d² Fw2s, so the table is built for the honest case — one string and one
// label per requester — to cost an index load per message: no hash, no
// map.
//
// The index has a slot per node id, pointing at x's record once the node
// has accepted an authenticated message about x. The record holds x's first
// request under each handler:
//
//   - Algorithm 2, for the string the node believes: the vouchers of x's
//     first label, the chain of x's other completed labels and whether x's
//     Pull was forwarded. The belief changes at most once, at decide, and
//     never back, so newBelief empties this part of every record.
//   - Algorithm 3, for the first string s and label r an Fw2 or Poll named:
//     the Fw2 vouchers and majority of (x, s, r), and whether (x, s) was
//     polled and answered. A node is on about d poll lists, so only about d
//     of its records get this part; it lives in a small array of its own,
//     which keeps a record at 32 bytes. It is keyed by s and survives
//     decide.
//
// What a record has no room for — a Byzantine x's second label, an Fw2 or
// Poll for a string or label other than the record's — is spilled into one
// map keyed by (x, s, r): constant time per message however many labels or
// strings the sender names. A correct requester reaches it only with a
// second candidate string.
//
// The forward-once flag of (x, s, w) needs no storage of its own: a request
// that reaches its majority forwards to every w of its poll list the node
// serves, so the flag is set exactly when some label r′ of x has completed
// and w ∈ J(x, r′). The completed labels of x are its first label, if done,
// and a chain of spilled labels, empty for an honest requester.
type reqTable struct {
	// index holds x's record number plus one, or zero, for each node id.
	index []int32
	recs  []requester
	polls []pollState
	over  map[spillKey]int32 // spill entry numbers
	spill []spillEntry
	// vouchers holds one block of stride ⌊d/2⌋ + 1 ids per request that has
	// a voucher: a set never grows past the majority that completes it.
	vouchers []int32
	stride   int
}

// request counts the distinct vouchers of one request (x, s, r) up to the
// strict majority that completes it; its owner keeps the done flag.
type request struct {
	r     uint64
	block int32 // voucher block number plus one, or zero before the first voucher
	n     int32 // vouchers recorded
}

// requester is x's record.
type requester struct {
	// Algorithm 2, for the belief: x's first label, open once it has a
	// voucher; the chain of x's other completed labels, a spill entry
	// number plus one, or zero; and whether x's Pull was fanned out.
	fw1                request
	last               int32
	fw1Done, forwarded bool
	// poll is x's Algorithm 3 part, its number in polls plus one, or zero.
	poll int32
	x    int32
}

// pollState is x's Algorithm 3 part: the Fw2 request (x, sid, fw2.r) and
// the Polled and answered flags of (x, sid).
type pollState struct {
	fw2                       request
	sid                       intern.ID
	fw2Done, polled, answered bool
}

type spillKind uint8

const (
	spillFw1  spillKind = iota // an Fw1 label of x under the belief s
	spillFw2                   // an Fw2 request (x, s, r)
	spillPoll                  // the Polled and answered flags of (x, s); r = 0
)

type spillKey struct {
	x    int32
	kind spillKind
	s    intern.ID
	r    uint64
}

type spillEntry struct {
	req                    request
	prev                   int32 // spillFw1: the previous completed label of x
	done, polled, answered bool
}

// get returns x's record, creating it. x must be a node id. The pointer is
// valid until the next get of another requester.
func (t *reqTable) get(x int) *requester {
	if i := t.index[x]; i != 0 {
		return &t.recs[i-1]
	}
	t.recs = append(t.recs, requester{x: int32(x)})
	t.index[x] = int32(len(t.recs))
	return &t.recs[len(t.recs)-1]
}

// open returns the number of the spill entry under k, creating it.
func (t *reqTable) open(k spillKey) int32 {
	if i, ok := t.over[k]; ok {
		return i
	}
	if t.over == nil {
		t.over = make(map[spillKey]int32)
	}
	t.over[k] = int32(len(t.spill))
	t.spill = append(t.spill, spillEntry{req: request{r: k.r}})
	return int32(len(t.spill) - 1)
}

// lookup returns the spill entry under k, or nil.
func (t *reqTable) lookup(k spillKey) *spillEntry {
	if i, ok := t.over[k]; ok {
		return &t.spill[i]
	}
	return nil
}

// fw1 returns x's request under label r for the belief sid and its done
// flag, opening x's first label if it has none: the record's, or a spilled
// one (then e is its entry number plus one).
func (t *reqTable) fw1(rec *requester, sid intern.ID, r uint64) (req *request, done *bool, e int32) {
	if rec.fw1.n == 0 {
		rec.fw1.r = r
	}
	if rec.fw1.r == r {
		return &rec.fw1, &rec.fw1Done, 0
	}
	e = t.open(spillKey{x: rec.x, kind: spillFw1, s: sid, r: r}) + 1
	return &t.spill[e-1].req, &t.spill[e-1].done, e
}

// complete marks x's request as having reached its majority and, for a
// spilled label e, chains it to x's completed labels.
func (t *reqTable) complete(rec *requester, done *bool, e int32) {
	*done = true
	if e != 0 {
		t.spill[e-1].prev = rec.last
		rec.last = e
	}
}

// part returns x's Algorithm 3 part if it is sid's, or nil. With claim, a
// record without one gets it for (sid, r).
func (t *reqTable) part(rec *requester, sid intern.ID, r uint64, claim bool) *pollState {
	if rec.poll == 0 {
		if !claim {
			return nil
		}
		t.polls = append(t.polls, pollState{fw2: request{r: r}, sid: sid})
		rec.poll = int32(len(t.polls))
	}
	if p := &t.polls[rec.poll-1]; p.sid == sid {
		return p
	}
	return nil
}

// fw2 returns the Fw2 request (x, sid, r) and its done flag, creating them.
func (t *reqTable) fw2(rec *requester, sid intern.ID, r uint64) (req *request, done *bool) {
	if p := t.part(rec, sid, r, true); p != nil && p.fw2.r == r {
		return &p.fw2, &p.fw2Done
	}
	e := &t.spill[t.open(spillKey{x: rec.x, kind: spillFw2, s: sid, r: r})]
	return &e.req, &e.done
}

// majority reports whether the Fw2 request (x, sid, r) reached its majority.
func (t *reqTable) majority(rec *requester, sid intern.ID, r uint64) bool {
	if p := t.part(rec, sid, r, false); p != nil && p.fw2.r == r {
		return p.fw2Done
	}
	e := t.lookup(spillKey{x: rec.x, kind: spillFw2, s: sid, r: r})
	return e != nil && e.done
}

// polled reports whether (x, sid) was polled.
func (t *reqTable) polled(rec *requester, sid intern.ID) bool {
	if p := t.part(rec, sid, 0, false); p != nil {
		return p.polled
	}
	e := t.lookup(spillKey{x: rec.x, kind: spillPoll, s: sid})
	return e != nil && e.polled
}

// flags returns the Polled and answered flags of (x, sid), creating them; r
// is the label that claims x's Algorithm 3 part for sid if it has none.
func (t *reqTable) flags(rec *requester, sid intern.ID, r uint64) (polled, answered *bool) {
	if p := t.part(rec, sid, r, true); p != nil {
		return &p.polled, &p.answered
	}
	e := &t.spill[t.open(spillKey{x: rec.x, kind: spillPoll, s: sid})]
	return &e.polled, &e.answered
}

// vouch records voucher y on req and reports whether it was new.
func (t *reqTable) vouch(req *request, y int) bool {
	if req.block == 0 {
		t.vouchers = slices.Grow(t.vouchers, t.stride)
		t.vouchers = t.vouchers[:len(t.vouchers)+t.stride]
		req.block = int32(len(t.vouchers) / t.stride)
	}
	set := t.vouchers[int(req.block-1)*t.stride:][:t.stride]
	for _, have := range set[:req.n] {
		if have == int32(y) {
			return false
		}
	}
	set[req.n] = int32(y)
	req.n++
	return true
}

// newBelief empties the Algorithm 2 part of every record, keeping its
// voucher block: nothing vouched under the old belief can match again.
// Spilled labels are filed under the old belief and are never found again
// either.
func (t *reqTable) newBelief() {
	for i := range t.recs {
		rec := &t.recs[i]
		rec.fw1 = request{block: rec.fw1.block}
		rec.last, rec.fw1Done, rec.forwarded = 0, false, false
	}
}

// reset empties the table for a new instance, keeping its storage, in time
// proportional to the requesters it holds.
func (t *reqTable) reset() {
	for i := range t.recs {
		t.index[t.recs[i].x] = 0
	}
	t.recs = t.recs[:0]
	t.polls = t.polls[:0]
	if len(t.over) > 0 {
		clear(t.over)
	}
	t.spill = t.spill[:0]
	t.vouchers = t.vouchers[:0]
}

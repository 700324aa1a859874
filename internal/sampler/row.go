package sampler

import (
	"sync/atomic"

	"github.com/fastba/fastba/internal/bitstring"
	"github.com/fastba/fastba/internal/prng"
)

// Row is one derived sampler row: the distinct members of a Pull Quorum
// H(s, x) or of a Poll List J(x, r). Order lists them in sampling order —
// the order a fan-out to them sends in — and Bits holds them as a bit vector
// over node ids whose Count is the distinct size (a quorum's threshold
// denominator). A Row is immutable once a sampler has published it: every
// caller in the process reads the same one, and none may write it.
type Row struct {
	Order []int32
	Bits  bitstring.Bitset
}

// init sizes an empty row for at most d members of the domain [0, n).
func (r *Row) init(n, d int) {
	r.Order = make([]int32, 0, d)
	r.Bits.Grow(n)
}

// add appends y to the row unless it is already a member.
func (r *Row) add(y int) {
	if r.Bits.Set(y) {
		r.Order = append(r.Order, int32(y))
	}
}

// QuorumRows is the row table of one string s under a PermQuorum: the row
// H(s, x) of every node x, each derived by the first request for it and
// published for every later one. It hangs off s's slot in the sampler's
// permutation cache, so the cache bounds how many tables the sampler keeps;
// a caller that holds a table keeps its rows across evictions.
type QuorumRows struct {
	n     int
	perms []prng.Perm
	rows  []atomic.Pointer[Row]
}

// Row returns H(s, x) for a node x in [0, n), deriving it with d
// Perm.Apply on the first request. Racing derivers publish equal rows.
func (t *QuorumRows) Row(x int) *Row {
	slot := &t.rows[x]
	if r := slot.Load(); r != nil {
		return r
	}
	r := new(Row)
	r.init(t.n, len(t.perms))
	for j := range t.perms {
		r.add(t.perms[j].Apply(x))
	}
	slot.Store(r)
	return r
}

// published counts the rows of the table derived so far.
func (t *QuorumRows) published() int {
	held := 0
	for i := range t.rows {
		if t.rows[i].Load() != nil {
			held++
		}
	}
	return held
}

// pollRow is a published poll list tagged with the (x, r mod |R|) it is
// the list of.
type pollRow struct {
	x int
	r uint64
	Row
}

// pollSlots is the size of a Poll's row table: 4n slots, at least 64,
// rounded up to a power of two so a slot is a mask away from the key hash.
func pollSlots(n int) int {
	slots := 64
	for slots < 4*n {
		slots <<= 1
	}
	return slots
}

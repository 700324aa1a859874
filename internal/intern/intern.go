// Package intern provides small per-node interning tables that map
// candidate bit strings to dense integer IDs.
//
// Every protocol node keys most of its state by candidate string. Keying
// maps directly by string forces a fresh key allocation and a string hash
// on every delivery (bitstring.String.Key allocates); interning each
// distinct string once turns all subsequent state lookups into integer
// indexing. The table is expected to stay small: Lemma 4 bounds the number
// of distinct strings a correct node tracks during an execution.
//
// Tables are not safe for concurrent use; each protocol node owns its own
// (runners never activate one node concurrently).
package intern

import "github.com/fastba/fastba/internal/bitstring"

// ID is a dense per-table index of an interned string. IDs are assigned
// consecutively from 0 in first-seen order, so they are usable directly as
// slice indices.
type ID = int32

// None is the sentinel returned by Lookup for strings never interned.
const None ID = -1

// Table interns bit strings to dense IDs. The zero value is ready to use.
type Table struct {
	ids  map[bitstring.MapKey]ID
	strs []bitstring.String
}

// ID returns the dense ID for s, interning it on first sight.
func (t *Table) ID(s bitstring.String) ID {
	if id, ok := t.ids[s.MapKey()]; ok {
		return id
	}
	if t.ids == nil {
		t.ids = make(map[bitstring.MapKey]ID, 8)
	}
	id := ID(len(t.strs))
	t.ids[s.MapKey()] = id
	t.strs = append(t.strs, s)
	return id
}

// Lookup returns the ID for s, or None if s was never interned. It never
// modifies the table.
func (t *Table) Lookup(s bitstring.String) ID {
	if id, ok := t.ids[s.MapKey()]; ok {
		return id
	}
	return None
}

// String returns the string interned under id. It panics on IDs the table
// never issued.
func (t *Table) String(id ID) bitstring.String { return t.strs[id] }

// Len returns the number of interned strings (also the next ID).
func (t *Table) Len() int { return len(t.strs) }

// Reset empties the table for reuse, keeping the map's buckets and the
// slice's capacity allocated — the decision-log pipeline recycles one table
// per node across agreement instances.
func (t *Table) Reset() {
	clear(t.ids)
	t.strs = t.strs[:0]
}

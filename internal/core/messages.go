package core

import "github.com/fastba/fastba/internal/bitstring"

// Wire sizes: node IDs are 4 bytes, labels 8 bytes, strings use their
// length-prefixed packed encoding. These sizes feed the simnet bit meter,
// which is how the communication rows of Figure 1 are measured.
const (
	idBytes    = 4
	labelBytes = 8
)

// MsgPush is the push-phase message (§3.1.1): the sender diffuses its
// candidate string to the nodes whose Push Quorum it belongs to.
type MsgPush struct {
	S bitstring.String
}

// WireSize returns the encoded payload size in bytes.
func (m MsgPush) WireSize() int { return m.S.WireSize() }

// Kind returns the metric kind tag.
func (m MsgPush) Kind() string { return "push" }

// MsgPoll is Algorithm 1's Poll(s, r): sent by the verifying node x to
// every member of its Poll List J(x, r).
type MsgPoll struct {
	S bitstring.String
	R uint64
}

// WireSize returns the encoded payload size in bytes.
func (m MsgPoll) WireSize() int { return m.S.WireSize() + labelBytes }

// Kind returns the metric kind tag.
func (m MsgPoll) Kind() string { return "poll" }

// MsgPull is Algorithm 1's Pull(s, r): sent by the verifying node x to its
// Pull Quorum H(s, x), which acts as a filtering proxy.
type MsgPull struct {
	S bitstring.String
	R uint64
}

// WireSize returns the encoded payload size in bytes.
func (m MsgPull) WireSize() int { return m.S.WireSize() + labelBytes }

// Kind returns the metric kind tag.
func (m MsgPull) Kind() string { return "pull" }

// MsgFw1 is Algorithm 2's Fw1(x, s, r): a member y of H(s, x) vouches for
// x's pull request towards the Pull Quorums H(s, w) of the poll-list
// members w ∈ J(x, r). The recipient z derives the w's it serves itself —
// those whose H(s, w) holds it, in J(x, r) order — so one message per z
// stands for every Fw1(x, s, r, w) of the paper that z receives from y
// (DESIGN.md §2, note 6).
type MsgFw1 struct {
	X int
	S bitstring.String
	R uint64
}

// WireSize returns the encoded payload size in bytes.
func (m MsgFw1) WireSize() int { return idBytes + labelBytes + m.S.WireSize() }

// Kind returns the metric kind tag.
func (m MsgFw1) Kind() string { return "fw1" }

// MsgFw2 is Algorithm 2's Fw2(x, s, r): a member z of H(s, w) forwards the
// request to w after hearing it vouched by a majority of H(s, x).
type MsgFw2 struct {
	X int
	S bitstring.String
	R uint64
}

// WireSize returns the encoded payload size in bytes.
func (m MsgFw2) WireSize() int { return idBytes + labelBytes + m.S.WireSize() }

// Kind returns the metric kind tag.
func (m MsgFw2) Kind() string { return "fw2" }

// MsgAnswer is Algorithm 3's Answer(s): poll-list member w confirms the
// string s to the verifying node x. R echoes the request label so x can
// match the answer to the poll it issued.
type MsgAnswer struct {
	S bitstring.String
	R uint64
}

// WireSize returns the encoded payload size in bytes.
func (m MsgAnswer) WireSize() int { return m.S.WireSize() + labelBytes }

// Kind returns the metric kind tag.
func (m MsgAnswer) Kind() string { return "answer" }

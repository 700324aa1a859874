package wire

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"github.com/fastba/fastba/internal/ae"
	"github.com/fastba/fastba/internal/baseline"
	"github.com/fastba/fastba/internal/bitstring"
	"github.com/fastba/fastba/internal/core"
	"github.com/fastba/fastba/internal/prng"
	"github.com/fastba/fastba/internal/simnet"
)

// allMessages returns one instance of every wire-encodable message type.
func allMessages(t *testing.T) []simnet.Message {
	t.Helper()
	src := prng.New(1)
	s := bitstring.Random(src, 40)
	seg := bitstring.Random(src, 28)
	return []simnet.Message{
		core.MsgPush{S: s},
		core.MsgPoll{S: s, R: 0x1122334455667788},
		core.MsgPull{S: s, R: 42},
		&core.MsgFw1{X: 7, S: s, R: 99, W: []int32{12}},
		&core.MsgFw1{X: 7, S: s, R: 99, W: []int32{12, 3, 12, -1}},
		core.MsgFw2{X: 7, S: s, R: 99},
		core.MsgAnswer{S: s, R: 99},
		ae.MsgElect{Bin: 3, Seg: seg},
		ae.MsgValue{Level: 2, Index: 5, S: s},
		baseline.MsgQuery{},
		baseline.MsgReply{S: s},
		baseline.MsgBcast{S: s},
		baseline.MsgVote{Round: 4, S: s},
		simnet.InstMsg{Inst: 0, Inner: core.MsgPush{S: s}},
		simnet.InstMsg{Inst: 0xDEADBEEF, Inner: &core.MsgFw1{X: 7, S: s, R: 99, W: []int32{12, 5}}},
		simnet.RelayMsg{Origin: 4, Seq: 9, Dest: 11, TTL: 3, Inner: &core.MsgFw1{X: 7, S: s, R: 99, W: []int32{12, 5}}},
		simnet.InstMsg{Inst: 3, Inner: baseline.MsgQuery{}},
		simnet.CatchupReq{From: 0x1020304050607080, Max: 256},
		simnet.CatchupResp{},
		simnet.CatchupResp{Records: [][]byte{{0xab}, {}, {1, 2, 3, 4, 5}}},
		simnet.LogOpen{Seq: 0x0807060504030201},
		simnet.LogOpen{Seq: 17, Payloads: [][]byte{{0xfe, 0xed}, {}, {9, 8, 7}}},
		simnet.Ping{Nonce: 0x0102030405060708},
		simnet.Pong{Nonce: 0x8877665544332211},
	}
}

// TestNestedInstMsgRejected: the multiplexing envelope must not nest —
// a nested tag would silently shadow the outer instance.
func TestNestedInstMsgRejected(t *testing.T) {
	src := prng.New(2)
	s := bitstring.Random(src, 16)
	nested := simnet.InstMsg{Inst: 1, Inner: simnet.InstMsg{Inst: 2, Inner: core.MsgPush{S: s}}}
	if _, err := Marshal(nested); err == nil {
		t.Fatal("Marshal accepted a nested InstMsg")
	}
	// And on the decode side: an inner kind byte naming the envelope
	// itself is rejected.
	inner, err := Marshal(core.MsgPush{S: s})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte{1, 0, 0, 0, 0x30}
	payload = append(payload, inner...)
	if _, err := Unmarshal(0x30, payload); err == nil {
		t.Fatal("Unmarshal accepted a nested InstMsg")
	}
}

func TestMarshalLengthMatchesWireSize(t *testing.T) {
	// The contract that keeps the simulation's bit metering honest.
	for _, m := range allMessages(t) {
		buf, err := Marshal(m)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		if len(buf) != m.WireSize() {
			t.Errorf("%T: encoded %d bytes, WireSize %d", m, len(buf), m.WireSize())
		}
	}
}

func TestRoundTripAllTypes(t *testing.T) {
	for _, m := range allMessages(t) {
		kind, err := KindByte(m)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		buf, err := Marshal(m)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		got, err := Unmarshal(kind, buf)
		if err != nil {
			t.Fatalf("%T: unmarshal: %v", m, err)
		}
		if !messagesEqual(m, got) {
			t.Errorf("%T: round trip mismatch: %#v != %#v", m, m, got)
		}
	}
}

// messagesEqual compares two messages by re-encoding (strings are
// immutable values; byte-level equality is exact).
func messagesEqual(a, b simnet.Message) bool {
	ab, errA := Marshal(a)
	bb, errB := Marshal(b)
	ka, _ := KindByte(a)
	kb, _ := KindByte(b)
	return errA == nil && errB == nil && ka == kb && bytes.Equal(ab, bb)
}

func TestEnvelopeRoundTrip(t *testing.T) {
	for _, m := range allMessages(t) {
		frame, err := EncodeEnvelope(3, 250, m)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		if len(frame) != EnvelopeOverhead+m.WireSize() {
			t.Errorf("%T: frame %d bytes, want %d", m, len(frame), EnvelopeOverhead+m.WireSize())
		}
		from, to, got, err := DecodeEnvelope(frame)
		if err != nil {
			t.Fatalf("%T: decode: %v", m, err)
		}
		if from != 3 || to != 250 || !messagesEqual(m, got) {
			t.Errorf("%T: envelope mismatch from=%d to=%d", m, from, to)
		}
	}
}

func TestUnknownMessage(t *testing.T) {
	if _, err := Marshal(fakeMsg{}); err == nil {
		t.Fatal("Marshal accepted unknown type")
	}
	if _, err := KindByte(fakeMsg{}); err == nil {
		t.Fatal("KindByte accepted unknown type")
	}
	if _, err := Unmarshal(0xFF, nil); err == nil {
		t.Fatal("Unmarshal accepted unknown kind")
	}
	if _, err := EncodeEnvelope(0, 0, fakeMsg{}); err == nil {
		t.Fatal("EncodeEnvelope accepted unknown type")
	}
}

type fakeMsg struct{}

func (fakeMsg) WireSize() int { return 0 }
func (fakeMsg) Kind() string  { return "fake" }

func TestTruncatedPayloadsRejected(t *testing.T) {
	for _, m := range allMessages(t) {
		kind, _ := KindByte(m)
		buf, _ := Marshal(m)
		for cut := 0; cut < len(buf); cut++ {
			if got, err := Unmarshal(kind, buf[:cut]); err == nil && !shorterFw1List(m, got) {
				t.Errorf("%T: truncation to %d bytes accepted", m, cut)
			}
		}
	}
}

// shorterFw1List reports whether got carries the Fw1 that m carries with
// fewer w's listed: an Fw1 list has no count, so a cut between two w's is
// the shorter list.
func shorterFw1List(m, got simnet.Message) bool {
	inner := func(m simnet.Message) *core.MsgFw1 {
		switch t := m.(type) {
		case simnet.InstMsg:
			m = t.Inner
		case simnet.RelayMsg:
			m = t.Inner
		}
		fw, _ := m.(*core.MsgFw1)
		return fw
	}
	a, b := inner(m), inner(got)
	return a != nil && b != nil && len(b.W) < len(a.W) && slices.Equal(b.W, a.W[:len(b.W)])
}

func TestTrailingBytesRejected(t *testing.T) {
	for _, m := range allMessages(t) {
		kind, _ := KindByte(m)
		buf, _ := Marshal(m)
		if _, err := Unmarshal(kind, append(buf, 0xEE)); err == nil {
			t.Errorf("%T: trailing garbage accepted", m)
		}
	}
}

func TestShortEnvelopeRejected(t *testing.T) {
	if _, _, _, err := DecodeEnvelope([]byte{1, 2, 3}); err == nil {
		t.Fatal("short envelope accepted")
	}
}

func TestQuickPushRoundTrip(t *testing.T) {
	src := prng.New(9)
	f := func(nbits16 uint16, r uint64) bool {
		nbits := int(nbits16%512) + 1
		s := bitstring.Random(src, nbits)
		m := core.MsgPoll{S: s, R: r}
		buf, err := Marshal(m)
		if err != nil || len(buf) != m.WireSize() {
			return false
		}
		got, err := Unmarshal(kindPoll, buf)
		if err != nil {
			return false
		}
		poll, ok := got.(core.MsgPoll)
		return ok && poll.S.Equal(s) && poll.R == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickFw1RoundTrip(t *testing.T) {
	src := prng.New(10)
	f := func(x uint16, ws []uint32, r uint64) bool {
		s := bitstring.Random(src, 40)
		m := &core.MsgFw1{X: int(x), R: r, S: s}
		for _, w := range ws {
			m.W = append(m.W, int32(w))
		}
		buf, err := Marshal(m)
		if len(ws) == 0 {
			return err != nil // an empty list has no encoding
		}
		if err != nil {
			return false
		}
		got, err := Unmarshal(kindFw1, buf)
		if err != nil {
			return false
		}
		fw, ok := got.(*core.MsgFw1)
		return ok && fw.X == int(x) && slices.Equal(fw.W, m.W) && fw.R == r && fw.S.Equal(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFw1ListCodec: an Fw1 lists its w's after the string, as many as the
// payload holds. A singleton costs exactly what the one-w Fw1 did, every
// further w four bytes; an empty list, a ragged tail and the retired kind
// 0x04 do not decode. (allMessages carries lists inside InstMsg and
// RelayMsg, and buildFrames inside batch records.)
func TestFw1ListCodec(t *testing.T) {
	s := bitstring.Random(prng.New(11), 40)
	d := core.DefaultParams(24).QuorumSize
	for _, k := range []int{1, 2, d} {
		m := &core.MsgFw1{X: 3, S: s, R: 77}
		for i := 0; i < k; i++ {
			m.W = append(m.W, int32(i*5))
		}
		buf, err := Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if len(buf) != m.WireSize() {
			t.Errorf("k=%d: encoded %d bytes, WireSize %d", k, len(buf), m.WireSize())
		}
		// x and w are 4-byte ids, r an 8-byte label.
		if want := 2*4 + 8 + s.WireSize() + 4*(k-1); m.WireSize() != want {
			t.Errorf("k=%d: WireSize %d, want %d", k, m.WireSize(), want)
		}
	}

	one, err := Marshal(&core.MsgFw1{X: 3, S: s, R: 77, W: []int32{9}})
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		kind    byte
		payload []byte
	}{
		"empty list":   {kindFw1, one[:len(one)-4]},
		"ragged tail":  {kindFw1, append(append([]byte{}, one...), 0, 0)},
		"retired 0x04": {0x04, one},
	} {
		if m, err := Unmarshal(c.kind, c.payload); err == nil {
			t.Errorf("%s: decoded to %#v", name, m)
		}
	}
	if _, err := Marshal(&core.MsgFw1{X: 3, S: s, R: 77}); err == nil {
		t.Error("an Fw1 with no w encoded")
	}
}

func TestKindBytesDistinct(t *testing.T) {
	// One kind byte per message TYPE (allMessages may carry several
	// instances of one type, e.g. InstMsg variants).
	seen := map[byte]string{}
	for _, m := range allMessages(t) {
		k, err := KindByte(m)
		if err != nil {
			t.Fatal(err)
		}
		typ := fmt.Sprintf("%T", m)
		if prev, dup := seen[k]; dup && prev != typ {
			t.Fatalf("kind byte %#x shared by %s and %s", k, prev, typ)
		}
		seen[k] = typ
	}
}

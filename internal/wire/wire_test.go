package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
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
		core.MsgFw1{X: 7, S: s, R: 99},
		core.MsgFw2{X: 7, S: s, R: 99},
		core.MsgAnswer{S: s, R: 99},
		ae.MsgElect{Bin: 3, Seg: seg},
		ae.MsgValue{Level: 2, Index: 5, S: s},
		baseline.MsgQuery{},
		baseline.MsgReply{S: s},
		baseline.MsgBcast{S: s},
		baseline.MsgVote{Round: 4, S: s},
		simnet.InstMsg{Inst: 0, Inner: core.MsgPush{S: s}},
		simnet.InstMsg{Inst: 0xDEADBEEF, Inner: core.MsgFw1{X: 7, S: s, R: 99}},
		simnet.RelayMsg{Origin: 4, Seq: 9, Dest: 11, TTL: 3, Inner: core.MsgFw1{X: 7, S: s, R: 99}},
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
			if _, err := Unmarshal(kind, buf[:cut]); err == nil {
				t.Errorf("%T: truncation to %d bytes accepted", m, cut)
			}
		}
	}
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
	f := func(x uint32, r uint64) bool {
		s := bitstring.Random(src, 40)
		m := core.MsgFw1{X: int(x), R: r, S: s}
		buf, err := Marshal(m)
		if err != nil {
			return false
		}
		got, err := Unmarshal(kindFw1, buf)
		if err != nil {
			return false
		}
		fw, ok := got.(core.MsgFw1)
		return ok && fw.X == int(x) && fw.R == r && fw.S.Equal(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// listFw1 appends the w's of the retired list format to an encoded Fw1.
func listFw1(fw1 []byte, ws ...uint32) []byte {
	out := append([]byte{}, fw1...)
	for _, w := range ws {
		out = binary.LittleEndian.AppendUint32(out, w)
	}
	return out
}

// TestFw1Codec: an Fw1 names a request and is laid out as Fw2 is — x, r
// and s, nothing else — and a payload in a retired list format does not
// decode: one w under 0x04, a list under 0x07, or a list under the current
// kind, whose w's are trailing bytes.
func TestFw1Codec(t *testing.T) {
	s := bitstring.Random(prng.New(11), 40)
	fw1, err := Marshal(core.MsgFw1{X: 3, S: s, R: 77})
	if err != nil {
		t.Fatal(err)
	}
	fw2, err := Marshal(core.MsgFw2{X: 3, S: s, R: 77})
	if err != nil {
		t.Fatal(err)
	}
	// x is a 4-byte id, r an 8-byte label.
	if !bytes.Equal(fw1, fw2) || len(fw1) != 4+8+s.WireSize() {
		t.Errorf("Fw1 encodes to %x, Fw2 with the same fields to %x", fw1, fw2)
	}
	for name, c := range map[string]struct {
		kind    byte
		payload []byte
	}{
		"one w, retired 0x04":     {0x04, listFw1(fw1, 9)},
		"list, retired 0x07":      {0x07, listFw1(fw1, 9, 4)},
		"list under the new kind": {kindFw1, listFw1(fw1, 9)},
	} {
		if m, err := Unmarshal(c.kind, c.payload); err == nil {
			t.Errorf("%s: decoded to %#v", name, m)
		}
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

package wire

import (
	"encoding/binary"
	"testing"
	"testing/quick"

	"github.com/fastba/fastba/internal/bitstring"
	"github.com/fastba/fastba/internal/core"
	"github.com/fastba/fastba/internal/prng"
	"github.com/fastba/fastba/internal/simnet"
)

// buildFrames encodes count length-prefixed frames for one link, mixing
// plain and instance-tagged records the way a coalescing link writer does.
func buildFrames(t testing.TB, src *prng.Source, from, to, count int) ([][]byte, []simnet.Envelope) {
	t.Helper()
	frames := make([][]byte, 0, count)
	want := make([]simnet.Envelope, 0, count)
	for i := 0; i < count; i++ {
		s := bitstring.Random(src, 1+int(src.Uint64()%256))
		var f []byte
		var err error
		e := simnet.Envelope{From: from, To: to}
		switch i % 3 {
		case 0:
			e.Msg = core.MsgPush{S: s}
			f, err = AppendFrame(nil, from, to, e.Msg)
		case 1:
			e.Msg = core.MsgFw1{X: i, S: s, R: uint64(i) * 977}
			f, err = AppendFrame(nil, from, to, e.Msg)
		default:
			e.Msg, e.Inst, e.Tagged = core.MsgPoll{S: s, R: uint64(i)}, uint32(i), true
			f, err = AppendTaggedFrame(nil, from, to, uint32(i), e.Msg)
		}
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
		want = append(want, e)
	}
	return frames, want
}

func TestBatchRoundTrip(t *testing.T) {
	src := prng.New(21)
	frames, want := buildFrames(t, src, 3, 7, 9)
	batch, err := AppendBatchFrame(nil, frames)
	if err != nil {
		t.Fatal(err)
	}
	// The frame after its length prefix must self-identify as a batch.
	if got := binary.LittleEndian.Uint32(batch[0:4]); int(got) != len(batch)-4 {
		t.Fatalf("length prefix %d, frame body %d", got, len(batch)-4)
	}
	body := batch[4:]
	if !IsBatchFrame(body) {
		t.Fatal("batch frame not recognized")
	}
	got, err := DecodeBatchAppend(nil, body, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d envelopes, want %d", len(got), len(want))
	}
	for i := range got {
		w, g := want[i], got[i]
		if g.From != w.From || g.To != w.To || g.Inst != w.Inst || g.Tagged != w.Tagged {
			t.Fatalf("record %d: header mismatch %+v != %+v", i, g, w)
		}
		if !messagesEqual(w.Msg, g.Msg) {
			t.Fatalf("record %d: message mismatch", i)
		}
	}
}

// TestQuickBatchRoundTrip drives AppendBatchFrame/DecodeBatchAppend over
// randomized batch shapes: any batch that encodes must decode to exactly
// the messages that went in.
func TestQuickBatchRoundTrip(t *testing.T) {
	src := prng.New(22)
	f := func(count8 uint8, from16, to16 uint16) bool {
		count := 1 + int(count8%32)
		from, to := int(from16), int(to16)
		frames, want := buildFrames(t, src, from, to, count)
		batch, err := AppendBatchFrame(nil, frames)
		if err != nil {
			return false
		}
		got, err := DecodeBatchAppend(nil, batch[4:], false)
		if err != nil || len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].From != from || got[i].To != to || !messagesEqual(want[i].Msg, got[i].Msg) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBatchEncodeRejections(t *testing.T) {
	src := prng.New(23)
	frames, _ := buildFrames(t, src, 1, 2, 3)
	if _, err := AppendBatchFrame(nil, nil); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := AppendBatchFrame(nil, [][]byte{frames[0][:5]}); err == nil {
		t.Error("short input frame accepted")
	}
	other, _ := buildFrames(t, src, 1, 3, 1) // different link
	if _, err := AppendBatchFrame(nil, append(frames[:2:2], other[0])); err == nil {
		t.Error("mixed-link batch accepted")
	}
	batch, err := AppendBatchFrame(nil, frames)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AppendBatchFrame(nil, [][]byte{batch}); err == nil {
		t.Error("nested batch accepted")
	}
}

// TestBatchDecodeAllOrNothing: a batch with one corrupt record yields no
// envelopes at all — partial batches would break exactly-once injection.
func TestBatchDecodeAllOrNothing(t *testing.T) {
	src := prng.New(24)
	frames, _ := buildFrames(t, src, 5, 6, 4)
	batch, err := AppendBatchFrame(nil, frames)
	if err != nil {
		t.Fatal(err)
	}
	body := batch[4:]
	sentinel := simnet.Envelope{From: -1}
	dst := []simnet.Envelope{sentinel}

	// Corrupt the last record's kind byte (find it by walking the records).
	corrupted := append([]byte(nil), body...)
	pos := EnvelopeOverhead + 4
	for i := 0; i < 3; i++ {
		pos += 4 + int(binary.LittleEndian.Uint32(corrupted[pos:]))
	}
	corrupted[pos+4] = 0xEE
	got, err := DecodeBatchAppend(dst, corrupted, false)
	if err == nil {
		t.Fatal("corrupt record accepted")
	}
	if len(got) != 1 || got[0].From != -1 {
		t.Fatalf("partial decode leaked %d envelopes past the sentinel", len(got)-1)
	}

	// Truncation and trailing garbage likewise decode to nothing.
	if _, err := DecodeBatchAppend(nil, body[:len(body)-2], false); err == nil {
		t.Error("truncated batch accepted")
	}
	if _, err := DecodeBatchAppend(nil, append(append([]byte(nil), body...), 0xEE), false); err == nil {
		t.Error("trailing garbage accepted")
	}

	// A corrupt count prefix is bounded, not trusted.
	huge := append([]byte(nil), body...)
	binary.LittleEndian.PutUint32(huge[EnvelopeOverhead:], maxBatchCount+1)
	if _, err := DecodeBatchAppend(nil, huge, false); err == nil {
		t.Error("oversized record count accepted")
	}
}

// TestDecodeAllocs pins what owning decode costs: one allocation for each
// bit string and one for each boxed message.
func TestDecodeAllocs(t *testing.T) {
	s := bitstring.Random(prng.New(27), core.DefaultParams(24).StringBits)
	push, err := AppendFrame(nil, 3, 7, core.MsgPush{S: s})
	if err != nil {
		t.Fatal(err)
	}
	frames := make([][]byte, 12)
	for i := range frames {
		frames[i] = push
	}
	batch, err := AppendBatchFrame(nil, frames)
	if err != nil {
		t.Fatal(err)
	}
	envs := make([]simnet.Envelope, 0, len(frames))
	allocs := testing.AllocsPerRun(100, func() {
		envs, err = DecodeBatchAppend(envs[:0], batch[4:], false)
	})
	if err != nil || len(envs) != len(frames) {
		t.Fatalf("batch decode: %d envelopes, %v", len(envs), err)
	}
	if perMsg := allocs / float64(len(frames)); perMsg != 2 {
		t.Errorf("batch decode: %.2f allocations per Push, want 2", perMsg)
	}

	fw1, err := EncodeEnvelope(3, 7, core.MsgFw1{X: 1, S: s, R: 9})
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _, _, err = DecodeEnvelope(fw1) }); err != nil || allocs != 2 {
		t.Errorf("Fw1 decode: %.1f allocations (err %v), want 2", allocs, err)
	}
}

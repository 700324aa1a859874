package wire

import (
	"testing"

	"github.com/fastba/fastba/internal/bitstring"
	"github.com/fastba/fastba/internal/core"
	"github.com/fastba/fastba/internal/prng"
	"github.com/fastba/fastba/internal/simnet"
)

// FuzzUnmarshal feeds arbitrary bytes to every decoder path: decoding must
// never panic, whatever decodes successfully must re-encode to exactly the
// bytes it consumed (canonical encoding), and a correct protocol node must
// survive being handed it — the decoder does not range-check the node ids a
// frame carries, so the node has to (the seed naming x = 1<<31). The testdata
// seed fw1-w-out-of-range is a list-format Fw1 under the retired kind 0x07.
func FuzzUnmarshal(f *testing.F) {
	src := prng.New(1)
	s := bitstring.Random(src, 40)
	params := core.DefaultParams(24)
	params.StringBits = s.Len()
	smp := core.NewSamplers(params)
	var fw1 []byte
	for _, m := range []simnet.Message{
		core.MsgPush{S: s},
		core.MsgAnswer{S: s, R: 9},
		core.MsgFw1{X: 1 << 31, R: 3, S: s},
		core.MsgFw1{X: 1, R: 3, S: s},
	} {
		kind, err := KindByte(m)
		if err != nil {
			f.Fatal(err)
		}
		buf, err := Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(kind, buf)
		fw1 = buf
	}
	f.Add(byte(0xFF), []byte{1, 2, 3})
	// Rejections: an Fw1 cut short, and the list formats — one w under the
	// retired kind 0x04, and a list under the current kind and under the
	// retired 0x07.
	f.Add(kindFw1, fw1[:len(fw1)-2])
	f.Add(byte(0x04), listFw1(fw1, 2))
	f.Add(kindFw1, listFw1(fw1, 2, 5, 2))
	f.Add(byte(0x07), listFw1(fw1, 2, 5, 2))
	f.Fuzz(func(t *testing.T, kind byte, payload []byte) {
		m, err := Unmarshal(kind, payload)
		if err != nil {
			return // malformed input correctly rejected
		}
		again, err := Marshal(m)
		if err != nil {
			t.Fatalf("decoded message failed to re-encode: %v", err)
		}
		if string(again) != string(payload) {
			t.Fatalf("non-canonical encoding: %x -> %x", payload, again)
		}
		if len(again) != m.WireSize() {
			t.Fatalf("WireSize %d != encoded %d", m.WireSize(), len(again))
		}
		core.NewNode(3, s, params, smp, prng.New(2)).Deliver(discard{}, 5, m)
	})
}

// discard is a simnet.Context that drops every send.
type discard struct{}

func (discard) Now() int                 { return 0 }
func (discard) Send(int, simnet.Message) {}

// FuzzDecodeBatch ensures batch-frame decoding never panics on junk, and
// that whatever decodes re-encodes canonically: rebuilding the batch from
// the decoded envelopes reproduces the input bytes exactly, even after the
// decoded frame has been overwritten (decoded messages own their data).
func FuzzDecodeBatch(f *testing.F) {
	src := prng.New(3)
	s := bitstring.Random(src, 40)
	f1, err := AppendFrame(nil, 1, 2, core.MsgPush{S: s})
	if err != nil {
		f.Fatal(err)
	}
	f2, err := AppendFrame(nil, 1, 2, core.MsgFw1{X: 3, S: s, R: 7})
	if err != nil {
		f.Fatal(err)
	}
	f3, err := AppendTaggedFrame(nil, 1, 2, 5, core.MsgAnswer{S: s, R: 11})
	if err != nil {
		f.Fatal(err)
	}
	batch, err := AppendBatchFrame(nil, [][]byte{f1, f2, f3})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(batch[4:])
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0, 0x60, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		buf := append([]byte(nil), data...)
		envs, err := DecodeBatchAppend(nil, buf, false)
		if err != nil {
			return // malformed input correctly rejected
		}
		clobber(buf)
		frames := make([][]byte, 0, len(envs))
		for _, e := range envs {
			m := e.Msg
			var frame []byte
			var ferr error
			if e.Tagged {
				frame, ferr = AppendTaggedFrame(nil, e.From, e.To, e.Inst, m)
			} else {
				frame, ferr = AppendFrame(nil, e.From, e.To, m)
			}
			if ferr != nil {
				t.Fatalf("decoded record failed to re-encode: %v", ferr)
			}
			frames = append(frames, frame)
		}
		again, err := AppendBatchFrame(nil, frames)
		if err != nil {
			t.Fatalf("decoded batch failed to re-encode: %v", err)
		}
		if string(again[4:]) != string(data) {
			t.Fatalf("non-canonical batch encoding: %x -> %x", data, again[4:])
		}
	})
}

// FuzzDecodeEnvelope ensures frame decoding never panics on junk, and
// that a decoded envelope owns its data: after the frame it came from has
// been overwritten, it still re-encodes to the original bytes.
func FuzzDecodeEnvelope(f *testing.F) {
	frame, err := EncodeEnvelope(1, 2, core.MsgPush{S: bitstring.Random(prng.New(2), 24)})
	if err != nil {
		f.Fatal(err)
	}
	fw1, err := EncodeEnvelope(1, 2, core.MsgFw1{X: 3, S: bitstring.Random(prng.New(2), 21), R: 7})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame)
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(fw1)
	f.Fuzz(func(t *testing.T, data []byte) {
		buf := append([]byte(nil), data...)
		from, to, m, err := DecodeEnvelope(buf)
		if err != nil {
			return
		}
		clobber(buf)
		again, err := EncodeEnvelope(from, to, m)
		if err != nil {
			t.Fatalf("decoded envelope failed to re-encode: %v", err)
		}
		if string(again) != string(data) {
			t.Fatalf("decoded envelope does not own its data or is non-canonical: %x -> %x", data, again)
		}
	})
}

// clobber overwrites a decoded frame with 0xDB, so a decoded value that
// still aliases it re-encodes to the fill pattern instead of the input.
func clobber(frame []byte) {
	for i := range frame {
		frame[i] = 0xDB
	}
}

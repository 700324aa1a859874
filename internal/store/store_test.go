package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/fastba/fastba/internal/bitstring"
	"github.com/fastba/fastba/internal/prng"
)

// testRecord builds a deterministic record for seq.
func testRecord(seq uint64) Record {
	src := prng.New(prng.DeriveKey(7, "store/test", seq))
	payloads := make([][]byte, 1+seq%3)
	for i := range payloads {
		p := make([]byte, 8+int(seq%5)*4)
		for j := range p {
			p[j] = byte(src.Uint64())
		}
		payloads[i] = p
	}
	return Record{
		Seq:             seq,
		Value:           bitstring.Random(src, 64),
		Payloads:        payloads,
		Deciders:        10 + int(seq),
		Correct:         12,
		DistinctValues:  1,
		CertDeficits:    0,
		MatchesProposal: true,
		OpenedNs:        int64(seq) * 1000,
		CommittedNs:     int64(seq)*1000 + 500,
	}
}

func recordsEqual(a, b Record) bool {
	if a.Seq != b.Seq || !a.Value.Equal(b.Value) || len(a.Payloads) != len(b.Payloads) {
		return false
	}
	for i := range a.Payloads {
		if !bytes.Equal(a.Payloads[i], b.Payloads[i]) {
			return false
		}
	}
	return a.Deciders == b.Deciders && a.Correct == b.Correct &&
		a.DistinctValues == b.DistinctValues && a.CertDeficits == b.CertDeficits &&
		a.MatchesProposal == b.MatchesProposal &&
		a.OpenedNs == b.OpenedNs && a.CommittedNs == b.CommittedNs
}

func appendN(t *testing.T, s *Store, from, n uint64) {
	t.Helper()
	for seq := from; seq < from+n; seq++ {
		if err := s.Append(testRecord(seq)); err != nil {
			t.Fatalf("append seq %d: %v", seq, err)
		}
	}
}

func verifyPrefix(t *testing.T, s *Store, n uint64) {
	t.Helper()
	recs := s.Records()
	if uint64(len(recs)) != n {
		t.Fatalf("recovered %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		if !recordsEqual(r, testRecord(uint64(i))) {
			t.Fatalf("record %d does not round-trip: %+v", i, r)
		}
	}
}

// TestAppendReopenRoundTrip: records written across several rolled
// segments come back byte-identical on reopen.
func TestAppendReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentBytes: 256, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 0, 20)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{SegmentBytes: 256, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	verifyPrefix(t, s2, 20)
	// Appends resume exactly at the recovered frontier.
	if got := s2.Frontier(); got != 20 {
		t.Fatalf("frontier %d after reopen, want 20", got)
	}
	appendN(t, s2, 20, 3)
	verifyPrefix(t, s2, 23)
}

// TestCrashRecover: a crash (close without the final fsync) still
// recovers every append that returned, because each append fsynced (or
// joined a flushed window) before returning.
func TestCrashRecover(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 0, 7)
	s.Crash()
	if err := s.Append(testRecord(7)); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after crash: %v, want ErrClosed", err)
	}

	s2, err := Open(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	verifyPrefix(t, s2, 7)
}

// tailSegment returns the path of the highest-start segment in dir.
func tailSegment(t *testing.T, dir string) string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no segments in %s (err %v)", dir, err)
	}
	last := paths[0]
	for _, p := range paths[1:] {
		if p > last {
			last = p
		}
	}
	return last
}

// TestTornTailTruncated: a partial frame at the end of the tail segment
// (a crash mid-append) is truncated away; the records before it survive
// and appending resumes.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 0, 5)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a torn append: half a frame of garbage at the tail.
	tail := tailSegment(t, dir)
	f, err := os.OpenFile(tail, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	verifyPrefix(t, s2, 5)
	appendN(t, s2, 5, 2)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// The truncated-and-extended file must replay cleanly again.
	s3, err := Open(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	verifyPrefix(t, s3, 7)
}

// TestFlippedCRCByte: a corrupt byte inside the last frame fails its CRC;
// recovery keeps the prefix before it and truncates the rest.
func TestFlippedCRCByte(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 0, 4)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	tail := tailSegment(t, dir)
	data, err := os.ReadFile(tail)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff // inside the last frame's payload
	if err := os.WriteFile(tail, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	verifyPrefix(t, s2, 3)
	// The frontier regressed to the corruption point — but only entries
	// the store never acknowledged are affected; re-appending works.
	appendN(t, s2, 3, 1)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	verifyPrefix(t, s3, 4)
}

// TestEmptySegmentDeleted: a zero-byte segment file (created but never
// written) is deleted on recovery instead of poisoning the prefix.
func TestEmptySegmentDeleted(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 0, 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A segment created at the frontier whose header write never hit disk.
	empty := filepath.Join(dir, segName(3))
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	verifyPrefix(t, s2, 3)
	appendN(t, s2, 3, 1)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(empty); !os.IsNotExist(err) {
		// The husk may have been recreated as a fresh tail; it must at
		// least parse now.
		s3, err := Open(dir, Options{SnapshotEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer s3.Close()
		verifyPrefix(t, s3, 4)
		return
	}
	s3, err := Open(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	verifyPrefix(t, s3, 4)
}

// TestSnapshotCompaction: the snapshot cadence rewrites the prefix into
// one snapshot, deletes covered segments, and recovery seeds from it.
func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentBytes: 128, SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 0, 10)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	snaps, _ := filepath.Glob(filepath.Join(dir, snapPrefix+"*"+snapSuffix))
	if len(snaps) != 1 {
		t.Fatalf("want exactly 1 snapshot after compaction, have %v", snaps)
	}
	// Segments older than the newest snapshot are gone: every surviving
	// segment starts at or after the snapshot count.
	segs, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	for _, p := range segs {
		base := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(p), segPrefix), segSuffix)
		if base < filepath.Base(snaps[0])[len(snapPrefix):len(snapPrefix)+16] {
			t.Fatalf("segment %s predates the snapshot %s", p, snaps[0])
		}
	}

	s2, err := Open(dir, Options{SegmentBytes: 128, SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	verifyPrefix(t, s2, 10)
}

// TestCorruptSnapshotFallsBack: an unparseable snapshot is discarded and
// recovery falls back to older truth (here: the segments, which the test
// preserves by corrupting a snapshot that never had segments deleted).
func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 0, 6)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Plant a corrupt snapshot claiming to cover more than exists.
	bogus := filepath.Join(dir, snapName(6))
	if err := os.WriteFile(bogus, []byte("BASNgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	verifyPrefix(t, s2, 6)
	if _, err := os.Stat(bogus); !os.IsNotExist(err) {
		t.Fatal("corrupt snapshot was not removed")
	}
}

// TestGroupCommitWindow: appends inside one SyncWindow share a flush and
// all return durable; a reopen sees every acknowledged record.
func TestGroupCommitWindow(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SyncWindow: 2 * time.Millisecond, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	first := make(chan error, 1)
	go func() { first <- s.Append(testRecord(0)) }()
	// The frame is written (frontier advances) before the appender parks,
	// so the next seq becomes appendable within the same window.
	deadline := time.Now().Add(time.Second)
	for s.Frontier() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("first append never advanced the frontier")
		}
		time.Sleep(50 * time.Microsecond)
	}
	if err := s.Append(testRecord(1)); err != nil {
		t.Fatal(err)
	}
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	s.Crash() // no final fsync: the window flush must have made them durable

	s2, err := Open(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	verifyPrefix(t, s2, 2)
}

// TestAppendSeqGate: the store accepts only the exact frontier seq.
func TestAppendSeqGate(t *testing.T) {
	s, err := Open(t.TempDir(), Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Append(testRecord(1)); err == nil {
		t.Fatal("append at seq 1 with frontier 0 must fail")
	}
	if err := s.Append(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(testRecord(0)); err == nil {
		t.Fatal("re-append at seq 0 with frontier 1 must fail")
	}
}

// TestRecordRoundTripQuick: property-based encode/decode round-trip over
// randomized records. The encoded buffer is overwritten before comparing:
// a decoded record owns its memory.
func TestRecordRoundTripQuick(t *testing.T) {
	f := func(seq uint64, value []byte, nbits uint8, payloads [][]byte, deciders, correct uint16, distinct, certdef uint8, matches bool, opened, committed int64) bool {
		bits := int(nbits)
		for len(value) < (bits+7)/8 {
			value = append(value, 0)
		}
		v, err := bitstring.FromBytes(value, bits)
		if err != nil {
			return false
		}
		r := Record{
			Seq: seq, Value: v, Payloads: payloads,
			Deciders: int(deciders), Correct: int(correct),
			DistinctValues: int(distinct), CertDeficits: int(certdef),
			MatchesProposal: matches, OpenedNs: opened, CommittedNs: committed,
		}
		buf := AppendRecord(nil, r)
		got, err := DecodeRecord(buf)
		if err != nil {
			return false
		}
		for i := range buf {
			buf[i] = 0xDB
		}
		// recordsEqual compares payloads by bytes.Equal, so the codec's
		// nil-versus-empty slice collapse is tolerated.
		return recordsEqual(got, r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeRecordRejectsTruncations: every strict prefix of a valid
// encoding fails to decode (no silent partial parse).
func TestDecodeRecordRejectsTruncations(t *testing.T) {
	full := AppendRecord(nil, testRecord(3))
	for n := 0; n < len(full); n++ {
		if _, err := DecodeRecord(full[:n]); err == nil {
			t.Fatalf("decode of %d/%d-byte prefix succeeded", n, len(full))
		}
	}
	if _, err := DecodeRecord(append(full, 0)); err == nil {
		t.Fatal("decode with a trailing byte succeeded")
	}
}

// TestAppendBatch: the catch-up ingest path appends a contiguous run with
// one fsync and the result survives reopen.
func TestAppendBatch(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]Record, 8)
	for i := range recs {
		recs[i] = testRecord(uint64(i))
	}
	if err := s.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	verifyPrefix(t, s2, 8)
}

// BenchmarkStoreAppend measures the durable append path (per-append
// fsync, the default policy).
func BenchmarkStoreAppend(b *testing.B) {
	s, err := Open(b.TempDir(), Options{SnapshotEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	r := testRecord(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Seq = uint64(i)
		if err := s.Append(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecoverReplay measures reopening a store whose prefix lives in
// WAL segments (no snapshot), i.e. worst-case replay.
func BenchmarkRecoverReplay(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir, Options{SnapshotEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	recs := make([]Record, 1024)
	for i := range recs {
		recs[i] = testRecord(uint64(i))
	}
	if err := s.AppendBatch(recs); err != nil {
		b.Fatal(err)
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(dir, Options{SnapshotEvery: -1})
		if err != nil {
			b.Fatal(err)
		}
		if s.Frontier() != 1024 {
			b.Fatalf("recovered %d", s.Frontier())
		}
		s.Close()
	}
}

package main

// The closed-loop load driver and the arithmetic behind every end-to-end
// number: fixed operation counts, marks taken at equal-count boundaries of
// the completion order, per-segment rates reduced to their median, and
// latency percentiles over the pooled samples.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// segments is how many equal-count pieces a timed phase is cut into after
// the fact. Rates are the median of the per-segment values, so a stall
// that lands in one or two segments cannot move them.
const segments = 5

// payloadBytes sizes every client payload.
const payloadBytes = 32

// cluster is one constructed system under test.
type cluster interface {
	// op performs closed-loop operation i of one client and returns the
	// sequence number of the entry that committed it and, where the row
	// can see it, that entry's open-to-commit time. Its inputs are a pure
	// function of (seed, client, i).
	op(ctx context.Context, client, i int) (seq uint64, decide time.Duration, err error)
	// childCPU is the user+system time of the cluster's OS processes
	// (zero for in-process rows, whose CPU is the harness's own).
	childCPU() time.Duration
	// verify checks the cluster's outputs against the operations it
	// acknowledged and returns the violations found.
	verify(ctx context.Context) []string
	// counters snapshots the cluster's cumulative layer counters; the
	// traced run reports their deltas.
	counters() map[string]float64
	// close tears the cluster down and removes what it left on disk.
	close()
}

// sample is one completed operation.
type sample struct {
	start   time.Time
	latency time.Duration // submit → commit on the harness clock
	decide  time.Duration // the committing entry's open → commit, 0 if unseen
	err     error
}

// mark is the state at a segment boundary.
type mark struct {
	at  time.Time
	ops int           // operations completed so far
	cpu time.Duration // harness + cluster children
	seq uint64        // highest committed sequence number seen so far
	pos int           // position in the pace probe's samples
}

// phase is one driven run: samples in completion order and cuts+1 marks.
type phase struct {
	samples []sample
	marks   []mark
}

// payloadFor derives the payload of one client's operation i from the seed
// (splitmix64), so the same seed proposes the same bytes whichever phase
// runs the operation.
func payloadFor(seed uint64, client, i int) []byte {
	x := seed*0x9E3779B97F4A7C15 ^ uint64(client)<<32 ^ uint64(i)
	p := make([]byte, payloadBytes)
	for off := 0; off < payloadBytes; off += 8 {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		binary.LittleEndian.PutUint64(p[off:], z^z>>31)
	}
	return p
}

// drive runs clients concurrent closed loops of perClient operations each,
// numbered from firstOp, and takes a mark whenever another 1/cuts of the
// operations has completed: equal counts, no barrier between segments.
func drive(ctx context.Context, c cluster, host *pace, clients, firstOp, perClient, cuts int, startSeq uint64) *phase {
	total := clients * perClient
	p := &phase{samples: make([]sample, 0, total)}
	maxSeq := startSeq
	var mu sync.Mutex
	takeMark := func() {
		p.marks = append(p.marks, mark{at: time.Now(), ops: len(p.samples), cpu: selfCPU() + c.childCPU(), seq: maxSeq, pos: host.now()})
	}
	takeMark()
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for i := firstOp; i < firstOp+perClient && ctx.Err() == nil; i++ {
				s := sample{start: time.Now()}
				seq, decide, err := c.op(ctx, cl, i)
				s.latency, s.decide, s.err = time.Since(s.start), decide, err
				mu.Lock()
				p.samples = append(p.samples, s)
				if err == nil && seq > maxSeq {
					maxSeq = seq
				}
				for len(p.marks) <= cuts && len(p.samples) >= total*len(p.marks)/cuts {
					takeMark()
				}
				mu.Unlock()
			}
		}(cl)
	}
	wg.Wait()
	return p
}

// lastSeq is the highest sequence number the phase saw committed.
func (p *phase) lastSeq() uint64 { return p.marks[len(p.marks)-1].seq }

// failures counts the operations that returned an error and returns the
// first such error.
func (p *phase) failures() (n int, first error) {
	for _, s := range p.samples {
		if s.err != nil {
			if n++; first == nil {
				first = s.err
			}
		}
	}
	return n, first
}

// slowdowns is the host's slow-down over each segment (entry k-1 covers
// marks k-1 to k); a nil probe reads as the reference pace throughout,
// which leaves values as the clock read them.
func (p *phase) slowdowns(host *pace) []float64 {
	out := make([]float64, len(p.marks)-1)
	for k := range out {
		out[k] = 1
		if host != nil {
			out[k] = host.slowdown(p.marks[k].pos, p.marks[k+1].pos)
		}
	}
	return out
}

// rates reduces the phase to the per-segment entry rate, payload rate and
// CPU per entry, each at the reference pace. A segment that committed no
// entry (toy scales only) is left out rather than reported as a zero or an
// infinity.
func (p *phase) rates(host *pace, payloadsPerOp int) (entriesPerS, payloadsPerS, cpuMsPerEntry []float64) {
	for k, slow := range p.slowdowns(host) {
		a, b := p.marks[k], p.marks[k+1]
		entries := float64(b.seq - a.seq)
		secs := b.at.Sub(a.at).Seconds() / slow
		if entries == 0 || secs <= 0 {
			continue
		}
		entriesPerS = append(entriesPerS, entries/secs)
		payloadsPerS = append(payloadsPerS, float64((b.ops-a.ops)*payloadsPerOp)/secs)
		cpuMsPerEntry = append(cpuMsPerEntry, float64(b.cpu-a.cpu)/float64(time.Millisecond)/entries/slow)
	}
	return
}

// latenciesMs returns the succeeded operations' latencies, sorted, each at
// the reference pace of the segment it completed in.
func (p *phase) latenciesMs(host *pace) []float64 {
	slow := p.slowdowns(host)
	out := make([]float64, 0, len(p.samples))
	k := 0
	for i, s := range p.samples {
		for k < len(slow)-1 && i >= p.marks[k+1].ops {
			k++
		}
		if s.err == nil {
			out = append(out, float64(s.latency)/float64(time.Millisecond)/slow[k])
		}
	}
	sort.Float64s(out)
	return out
}

// quantile interpolates the q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// median sorts a copy of values and returns its middle.
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// selfCPU is the harness process's user+system time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU reads a child's utime+stime from /proc/<pid>/stat. The kernel
// reports them in clock ticks, 100 per second on every Linux this runs on.
func procCPU(pid int) time.Duration {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0
	}
	// The command name (field 2) may hold spaces; fields count from the
	// closing parenthesis.
	rest := string(b[strings.LastIndexByte(string(b), ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0
	}
	utime, _ := strconv.ParseInt(f[11], 10, 64)
	stime, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(utime+stime) * (time.Second / 100)
}

// peakRSSMB is the harness's VmHWM.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// pace is the host-speed probe. This VM flips between regimes some 35 %
// apart in speed, each lasting tens of seconds (the same agreement at n=128
// took 1.25 s and 1.72 s within one minute, its CPU time growing alike), so
// a raw time says as much about the neighbours as about the program. A
// thread of its own runs a fixed pure-stdlib kernel — no repository code —
// every paceEvery and records how long it took; every timed quantity is
// then expressed at the reference pace, paceRefMs per kernel run.
type pace struct {
	mu      sync.Mutex
	samples []float64 // kernel wall times, milliseconds
	stop    chan struct{}
	done    chan struct{}
}

const (
	paceEvery = 40 * time.Millisecond
	// paceRefMs is the kernel's time on the reference host in its fast
	// regime; it only fixes the scale of the normalised numbers.
	paceRefMs = 1.25
	// paceWords sizes the kernel's array: 256 MiB, far beyond any cache, so
	// the walk pays memory latency whatever the neighbours leave of the LLC.
	// (A 32 MiB walk sped up far more than the workloads when the host went
	// quiet; of five candidate kernels this pair tracked them best.)
	paceWords = 1 << 25
)

// paceKernel is the fixed work: a random read-modify-write walk through
// memory and a SHA-256 chain, one memory-bound and one compute-bound half.
// Against 3 s windows of the fabric and TCP rows, dividing by the walk's
// time cut the windows' coefficient of variation from 9.2 % to 4.3 % and
// from 8.0 % to 4.7 %.
func paceKernel(big []uint64) {
	x := uint64(12345)
	var s uint64
	for i := 0; i < 20000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		j := (x >> 20) % paceWords
		s += big[j]
		big[j] = s + x
	}
	h := sha256.Sum256([]byte("fastba-bench-pace"))
	for i := 0; i < 6000; i++ {
		h = sha256.Sum256(h[:])
	}
	big[0] += uint64(h[0]) // keeps both results live
}

// startPace starts the probe and returns once its array is faulted in.
func startPace() *pace {
	p := &pace{stop: make(chan struct{}), done: make(chan struct{})}
	ready := make(chan struct{})
	go func() {
		defer close(p.done)
		// A thread of its own: the kernel scheduler, not the Go one, decides
		// when the probe runs, so busy workers delay it by microseconds.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		big := make([]uint64, paceWords)
		for i := 0; i < len(big); i += 512 {
			big[i] = uint64(i)
		}
		close(ready)
		tick := time.NewTicker(paceEvery)
		defer tick.Stop()
		for {
			t0 := time.Now()
			paceKernel(big)
			ms := float64(time.Since(t0)) / float64(time.Millisecond)
			p.mu.Lock()
			p.samples = append(p.samples, ms)
			p.mu.Unlock()
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
		}
	}()
	<-ready
	return p
}

func (p *pace) close() {
	close(p.stop)
	<-p.done
}

// now is the number of probe samples taken so far: a position in time that
// kernelMs can later be asked about.
func (p *pace) now() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.samples)
}

// kernelMs is the median kernel time between two positions. An interval too
// short to hold a sample borrows its neighbours.
func (p *pace) kernelMs(from, to int) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	from, to = max(0, min(from, len(p.samples)-3)), min(len(p.samples), max(to, from+3))
	if from >= to {
		return paceRefMs
	}
	return median(p.samples[from:to])
}

// slowdown is how much slower than the reference pace the host ran between
// two positions: measured times divide by it, measured rates multiply.
func (p *pace) slowdown(from, to int) float64 { return p.kernelMs(from, to) / paceRefMs }

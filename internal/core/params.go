// Package core implements AER, the paper's primary contribution: the
// unbalanced almost-everywhere to everywhere agreement protocol of §3
// (push phase §3.1.1, pull phase §3.1.2, Algorithms 1–3).
//
// Every node is a simnet.Node, so the same protocol code runs unchanged
// under the synchronous, asynchronous and goroutine runners. The protocol
// is fully event-driven: a node inserts a string into its candidate list
// the moment a strict majority of the corresponding Push Quorum has pushed
// it, and immediately starts the pull verification for that candidate —
// which is what makes AER "correct and efficient under asynchrony" (§1).
package core

import (
	"fmt"

	"github.com/fastba/fastba/internal/sampler"
)

// Params fixes the protocol geometry. All sizes are derived from n by
// DefaultParams but remain individually overridable for sweeps and
// ablations.
type Params struct {
	// N is the system size (the paper's n).
	N int
	// QuorumSize is d, the cardinality of Push Quorums I(s, x) and Pull
	// Quorums H(s, x) (Lemma 1: d = O(log n)).
	QuorumSize int
	// PollSize is the cardinality of Poll Lists J(x, r) (Lemma 2:
	// d = O(log n)).
	PollSize int
	// Labels is |R|, the cardinality of the random label domain, required
	// to be polynomial in n (§2.2); DefaultParams uses n².
	Labels uint64
	// StringBits is the length of candidate strings: c·log n for a large
	// enough constant c (§3, preconditions).
	StringBits int
	// AnswerBudget is the maximum number of pull requests a node answers
	// before deferring further answers until it has decided (the log² n
	// threshold of Algorithm 3). Zero means unlimited — the load-balance
	// ablation of experiment E12.
	AnswerBudget int
	// SamplerSeed keys the shared sampling functions I, H and J. The paper
	// assumes all nodes share these functions (§3.1 "Preconditions"); the
	// seed is therefore public and known to the adversary.
	SamplerSeed uint64
	// DecideThreshold, when positive, REPLACES the strict Poll List
	// majority of Algorithm 1 with a fixed answer count — a deliberate
	// protocol mutation for validating the invariant oracles (a node that
	// decides below the majority cannot hold a valid quorum certificate,
	// and colluding answerers can split the system). Zero, the only
	// faithful value, keeps the paper's 2·answers > PollSize rule.
	DecideThreshold int
	// DeferredRelay enables an extension beyond the paper's pseudocode:
	// a pull-quorum member that declines to proxy a request because the
	// string differs from its current belief (Algorithm 2's s = s_y check)
	// remembers the request and replays it if a later decision changes its
	// belief to that string — the Algorithm 2 analogue of §3.1.2's reply
	// condition 2. It substantially improves the success probability at
	// small n at the cost of extra post-decision messages; experiment E13
	// quantifies the trade-off. Off by default for pseudocode fidelity.
	DeferredRelay bool
}

// DefaultParams returns the geometry used throughout the experiments:
// d = max(12, 3·⌈log₂ n⌉) for quorums and poll lists, |R| = n²,
// |gstring| = 4·⌈log₂ n⌉ bits and a ⌈log₂ n⌉² answer budget.
func DefaultParams(n int) Params {
	lg := log2Ceil(n)
	d := 3 * lg
	if d < 12 {
		d = 12
	}
	if d > n {
		d = n
	}
	return Params{
		N:            n,
		QuorumSize:   d,
		PollSize:     d,
		Labels:       uint64(n) * uint64(n),
		StringBits:   4 * lg,
		AnswerBudget: lg * lg,
		SamplerSeed:  0x5eed,
	}
}

// Validate reports whether the parameters are internally consistent.
func (p Params) Validate() error {
	switch {
	case p.N <= 1:
		return fmt.Errorf("core: N = %d too small", p.N)
	case p.QuorumSize <= 0 || p.QuorumSize > p.N:
		return fmt.Errorf("core: QuorumSize = %d out of range for N = %d", p.QuorumSize, p.N)
	case p.PollSize <= 0 || p.PollSize > p.N:
		return fmt.Errorf("core: PollSize = %d out of range for N = %d", p.PollSize, p.N)
	case p.Labels == 0:
		return fmt.Errorf("core: Labels must be positive")
	case p.StringBits <= 0:
		return fmt.Errorf("core: StringBits must be positive")
	case p.AnswerBudget < 0:
		return fmt.Errorf("core: AnswerBudget must be non-negative")
	case p.DecideThreshold < 0 || p.DecideThreshold > p.PollSize:
		return fmt.Errorf("core: DecideThreshold = %d out of range for PollSize = %d", p.DecideThreshold, p.PollSize)
	}
	return nil
}

// Samplers bundles the three shared sampling functions of §3.1:
// I defines Push Quorums, H defines Pull Quorums and J generates Poll
// Lists. All nodes (and the adversary) hold the same instance.
type Samplers struct {
	I *sampler.PermQuorum
	H *sampler.PermQuorum
	J *sampler.Poll
}

// NewSamplers constructs the shared samplers for the given parameters
// using the permutation construction (no overloaded nodes, Lemma 1).
func NewSamplers(p Params) *Samplers {
	return &Samplers{
		I: sampler.NewPermQuorum(p.N, p.QuorumSize, p.SamplerSeed, "I"),
		H: sampler.NewPermQuorum(p.N, p.QuorumSize, p.SamplerSeed, "H"),
		J: sampler.NewPoll(p.N, p.PollSize, p.Labels, p.SamplerSeed),
	}
}

// log2Ceil returns ⌈log₂ n⌉ for n ≥ 1.
func log2Ceil(n int) int {
	lg := 0
	for v := n - 1; v > 0; v >>= 1 {
		lg++
	}
	if lg == 0 {
		lg = 1
	}
	return lg
}

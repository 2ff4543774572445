package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
)

// Digest returns a hex-encoded SHA-256 over the model's canonical
// persisted form (exactly the bytes Save would write). Two models with
// identical posteriors — whether reached by live feedback, journal
// replay, replication, or checkpoint reload — produce identical
// digests, which is what makes the anti-entropy comparison in the
// replication layer meaningful (DESIGN.md §14).
func (m *Model) Digest() (string, error) {
	h := sha256.New()
	if err := m.Save(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Digest computes the wrapped model's digest under the read lock, so
// the hash is a consistent point-in-time view even while feedback
// traffic keeps arriving.
func (c *ConcurrentModel) Digest() (string, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.m.Digest()
}

// KernelVersion names the arithmetic this binary runs where bits are a
// contract: what a projection (Algorithm 3: the φ/ε rounds, the task
// objective, the Newton solve and its line search) and a posterior
// fold compute from given inputs. Any commit that changes the iterate
// sequence of either — and with it the golden digests — bumps it. Two
// binaries with different versions disagree on λ_c and on replayed
// posteriors by design, not by corruption, so the version is hashed into
// the category version (a fleet mixing them falls back to text legs) and
// stamped on replication hellos and backup manifests (DESIGN §6).
//
//	1  every line search starts at InitialStep and halves (through PR 23;
//	   what a header without the field means)
//	2  the first trial comes from the previous search's decrease and a
//	   rejected trial is followed by a safeguarded quadratic step
//	3  every exponential is the package's own exp (math.Exp chose a fused
//	   path by CPUID) and Eq. 12 multiplies e^λ into a table of exp(LogBeta)
//	   where it took a softmax of logits
//	4  the skill fold solves its precision D + τ⁻²·ΛΛᵀ by Woodbury
//	   (Sherman–Morrison for one category) where it took a jittered
//	   Cholesky factor of the dense K×K matrix; ν_w² did not move
//	5  a projection maximizes each round's bound by damped Newton steps
//	   where it ran Polak–Ribière+ conjugate gradient; training did not
//	   move
const KernelVersion = 5

// categoryVersion is a hex SHA-256 over everything a projection reads
// and runs: the kernel version (KernelVersion, but for a test's relabelled
// node), K, V, the number of φ/ε/Newton rounds and the bits of MuC, SigmaC and
// LogBeta. Two models with equal versions project every bag to the same
// λ_c bit for bit, whatever their worker posteriors hold — which is what
// lets one shard of a fleet project for all of them.
func (m *Model) categoryVersion(kernel int) string {
	h := sha256.New()
	var b [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	put(uint64(kernel))
	put(uint64(m.K))
	put(uint64(m.V))
	put(uint64(m.projectInner()))
	for _, vs := range [][]float64{m.MuC, m.SigmaC.Data, m.LogBeta.Data} {
		for _, v := range vs {
			put(math.Float64bits(v))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

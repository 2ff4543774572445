package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"testing"

	"crowdselect/internal/corpus"
	"crowdselect/internal/linalg"
	"crowdselect/internal/text"
)

// Golden numerics (ROADMAP item 1): the digests below pin, bit for bit,
// what training, projection, selection and the incremental skill update
// compute on one small fixed platform. Float order is part of the
// replication contract (DESIGN §14: byte-identical posteriors across
// replicas), so a kernel change that reuses buffers must leave this test
// untouched and green; a change that reorders arithmetic on purpose
// bumps KernelVersion and re-cuts the constants in a commit that says so
// (the failure message prints the new values). (a) was last cut for
// KernelVersion 3, the kernel's own exponential and the table form of
// Eq. 12; (b)–(d) for KernelVersion 5, the Newton projection.
//
// The constants are for GOARCH=amd64 and 386, whose compilers never fuse
// a*b+c into one FMA: other ports may, and round differently, so the
// test skips itself there. Any amd64, since KernelVersion 3: through
// version 2 they were the constants of an amd64 *with FMA* — math.Exp
// picks its path by CPUID — which no skip could see; the kernel now
// calls math.Log and math.Sqrt (neither branches on the CPU) and its own
// exp (TestKernelCallsNoLibmExp).
const (
	goldenTrainedModel = "e3f3990b6a1a8da0fb0e2f9a9a688971bfee5a364ce9c81ef19635ffffc1516f"
	goldenProjections  = "48da3425a1142c3c23609450580d22507d7c5076e377783ecaeaebc218eda3c6"
	goldenSelections   = "53d805380b8585b2283ae3cfc6ac72cbfb70b3552699482aad37f1f215126603"
	goldenUpdatedModel = "b109903a9846023904352b37e26de00da797bb83c46d1ec146eca838a751f29e"
)

// goldenBags is the fixed bag list: the first 32 task texts of the
// platform, the empty bag, a bag of out-of-vocabulary ids only (both
// project to the prior) and a bag mixing known and unknown ids.
func goldenBags(d *corpus.Dataset) []text.Bag {
	bags := make([]text.Bag, 0, 35)
	for _, t := range d.Tasks[:32] {
		bags = append(bags, t.Bag(d.Vocab))
	}
	v := d.Vocab.Size()
	return append(bags,
		text.Bag{},
		text.Bag{IDs: []int{v, v + 7}, Counts: []float64{1, 2}},
		text.Bag{IDs: []int{0, 3, v + 1}, Counts: []float64{2, 1, 4}},
	)
}

func hashFloats(h hash.Hash, xs linalg.Vector) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}

func hashModel(t *testing.T, m *Model) string {
	t.Helper()
	h := sha256.New()
	if err := m.Save(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGoldenNumerics(t *testing.T) {
	if runtime.GOARCH != "amd64" && runtime.GOARCH != "386" {
		t.Skipf("golden constants are for GOARCH=amd64 and 386 (FMA fusion differs on %s)", runtime.GOARCH)
	}
	p := corpus.Quora().Scaled(0.04)
	p.Seed = 11
	d := corpus.MustGenerate(p)
	cfg := NewConfig(6)
	cfg.MaxIter = 8
	cfg.InnerIter = 2
	m, _, err := Train(tasksFromDataset(d), len(d.Workers), d.Vocab.Size(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	check := func(what, got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("%s digest = %s, want %s", what, got, want)
		}
	}
	check("(a) trained model", hashModel(t, m), goldenTrainedModel)

	bags := goldenBags(d)
	cats := make([]TaskCategory, len(bags))
	hp, hs := sha256.New(), sha256.New()
	for i, bag := range bags {
		cats[i] = m.Project(bag)
		hashFloats(hp, cats[i].Lambda)
		hashFloats(hp, cats[i].Nu2)
		for _, it := range m.SelectTopKScored(cats[i].Mean(), nil, 5) {
			hashFloats(hs, linalg.Vector{float64(it.ID), it.Score})
		}
	}
	check("(b) projections", hex.EncodeToString(hp.Sum(nil)), goldenProjections)
	check("(c) selections", hex.EncodeToString(hs.Sum(nil)), goldenSelections)

	// (d) A fixed feedback sequence: update i folds two projected
	// categories into worker 7i mod M with scores on the 1–5 scale and a
	// process variance cycling through 0, 0.01, 0.02.
	for i := 0; i < 40; i++ {
		ev := []TaskCategory{cats[i%32], cats[(i*5+3)%32]}
		scores := []float64{float64(1 + i%5), float64(1 + (i*3)%5)}
		if err := m.UpdateWorkerSkillDrift((7*i)%m.M, ev, scores, 0.01*float64(i%3)); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	check("(d) model after the update sequence", hashModel(t, m), goldenUpdatedModel)
}

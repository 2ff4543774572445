package eval

import (
	"fmt"

	"crowdselect/internal/baseline/multinomial"
	"crowdselect/internal/baseline/vsm"
	"crowdselect/internal/core"
	"crowdselect/internal/corpus"
	"crowdselect/internal/lda"
	"crowdselect/internal/plsa"
	"crowdselect/internal/text"
)

// Algo names a crowd-selection algorithm from §7.2.1.
type Algo string

// The four compared algorithms, plus the TF-IDF VSM variant used by
// the weighting ablation.
const (
	AlgoVSM      Algo = "VSM"
	AlgoVSMTFIDF Algo = "VSM-TFIDF"
	AlgoTSPM     Algo = "TSPM"
	AlgoDRM      Algo = "DRM"
	AlgoTDPM     Algo = "TDPM"
)

// AllAlgos lists the algorithms in the order the paper's tables use.
var AllAlgos = []Algo{AlgoVSM, AlgoTSPM, AlgoDRM, AlgoTDPM}

// ResolvedTasks converts a dataset to the core training input.
func ResolvedTasks(d *corpus.Dataset) []core.ResolvedTask {
	out := make([]core.ResolvedTask, len(d.Tasks))
	for j, t := range d.Tasks {
		rt := core.ResolvedTask{Bag: t.Bag(d.Vocab)}
		for _, r := range t.Responses {
			rt.Responses = append(rt.Responses, core.Scored{Worker: r.Worker, Score: r.Score})
		}
		out[j] = rt
	}
	return out
}

// bagsAndRespondents converts a dataset to the content-based baseline
// training input.
func bagsAndRespondents(d *corpus.Dataset) ([]text.Bag, [][]int) {
	bags := make([]text.Bag, len(d.Tasks))
	resp := make([][]int, len(d.Tasks))
	for j, t := range d.Tasks {
		bags[j] = t.Bag(d.Vocab)
		for _, r := range t.Responses {
			resp[j] = append(resp[j], r.Worker)
		}
	}
	return bags, resp
}

// TrainOptions tunes algorithm training for the experiments.
type TrainOptions struct {
	// K is the number of latent categories/topics (ignored by VSM).
	K int
	// Seed drives every stochastic component.
	Seed int64
	// TDPMSweeps, LDABurn and PLSAIters override the default iteration
	// budgets when positive.
	TDPMSweeps, LDABurn, PLSAIters int
}

// Train fits the named algorithm on the dataset and returns it as a
// Selector.
func Train(d *corpus.Dataset, algo Algo, opts TrainOptions) (Selector, error) {
	if opts.K < 1 {
		opts.K = 10
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	switch algo {
	case AlgoVSM:
		bags, resp := bagsAndRespondents(d)
		return vsm.Train(bags, resp, len(d.Workers))
	case AlgoVSMTFIDF:
		bags, resp := bagsAndRespondents(d)
		return vsm.TrainTFIDF(bags, resp, len(d.Workers))
	case AlgoTSPM:
		bags, resp := bagsAndRespondents(d)
		cfg := lda.NewConfig(opts.K)
		cfg.Seed = opts.Seed
		if opts.LDABurn > 0 {
			cfg.Burn = opts.LDABurn
		}
		return multinomial.TrainTSPM(bags, resp, len(d.Workers), d.Vocab.Size(), cfg)
	case AlgoDRM:
		bags, resp := bagsAndRespondents(d)
		cfg := plsa.NewConfig(opts.K)
		cfg.Seed = opts.Seed
		if opts.PLSAIters > 0 {
			cfg.Iterations = opts.PLSAIters
		}
		return multinomial.TrainDRM(bags, resp, len(d.Workers), d.Vocab.Size(), cfg)
	case AlgoTDPM:
		cfg := core.NewConfig(opts.K)
		cfg.Seed = opts.Seed
		if opts.TDPMSweeps > 0 {
			cfg.MaxIter = opts.TDPMSweeps
		}
		m, _, err := core.Train(ResolvedTasks(d), len(d.Workers), d.Vocab.Size(), cfg)
		return m, err
	default:
		return nil, fmt.Errorf("eval: unknown algorithm %q", algo)
	}
}

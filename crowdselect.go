// Package crowdselect is a from-scratch Go implementation of
// task-driven crowd-selection query processing for crowdsourcing
// databases, reproducing
//
//	Zhao, Wei, Zhou, Chen, Ng. "Crowd-Selection Query Processing in
//	Crowdsourcing Databases: A Task-Driven Approach." EDBT 2015.
//
// The library answers the paper's central question — given a
// crowdsourced task, who is the right worker to ask? — with TDPM, a
// Bayesian model that learns "who knows what": unnormalized worker
// skills over a latent category space, inferred variationally from
// past resolved tasks with feedback scores, with incremental
// projection of newly arriving tasks for real-time selection.
//
// # Quick start
//
//	tasks := []crowdselect.ResolvedTask{ ... }      // past tasks + feedback
//	cfg := crowdselect.NewConfig(10)                // 10 latent categories
//	model, _, err := crowdselect.Train(tasks, numWorkers, vocabSize, cfg)
//	...
//	cat := model.Project(bag)                       // new task → latent category
//	workers := model.SelectTopK(cat.Mean(), nil, 3) // Eq. 1 top-k selection
//
// This package is the quick start and nothing more. The crowd
// database, the HTTP service and its client, the baselines, the
// synthetic corpora and the evaluation harness live in the internal
// packages, which cmd/ and the programs under examples/ import
// directly; cmd/crowdbench regenerates the paper's tables and figures.
package crowdselect

import (
	"crowdselect/internal/core"
	"crowdselect/internal/text"
)

// Core model types (the paper's contribution, §§4–6).
type (
	// Config controls TDPM training: the latent dimension K, the sweep
	// cap MaxIter, the φ/ε/CG rounds per task and sweep, and the seed.
	// The regularization and the stop rule are fixed (DESIGN §4.2). See
	// NewConfig for defaults.
	Config = core.Config
	// Model is a trained TDPM.
	Model = core.Model
	// ResolvedTask is a past task with feedback used for training.
	ResolvedTask = core.ResolvedTask
	// Scored is one (worker, feedback score) pair.
	Scored = core.Scored
	// TaskCategory is a task's posterior latent category.
	TaskCategory = core.TaskCategory
	// TrainStats reports ELBO trajectory and convergence.
	TrainStats = core.TrainStats
)

// NewConfig returns the default TDPM configuration with k latent
// categories.
func NewConfig(k int) Config { return core.NewConfig(k) }

// Train fits a TDPM on resolved tasks (Algorithm 2 of the paper).
func Train(tasks []ResolvedTask, numWorkers, vocabSize int, cfg Config) (*Model, *TrainStats, error) {
	return core.Train(tasks, numWorkers, vocabSize, cfg)
}

// Text substrate (§4.1.1).
type (
	// Bag is a sparse bag of vocabularies.
	Bag = text.Bag
	// Vocabulary interns terms to dense ids.
	Vocabulary = text.Vocabulary
)

// Tokenize splits task text into terms, dropping stopwords.
func Tokenize(s string) []string { return text.Tokenize(s) }

// NewVocabulary returns an empty vocabulary.
func NewVocabulary() *Vocabulary { return text.NewVocabulary() }

// NewBag interns tokens and returns their bag representation.
func NewBag(v *Vocabulary, tokens []string) Bag { return text.NewBag(v, tokens) }

// NewBagKnown builds a bag using only already-interned terms.
func NewBagKnown(v *Vocabulary, tokens []string) Bag { return text.NewBagKnown(v, tokens) }

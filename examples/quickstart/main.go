// Quickstart: train TDPM on a handful of hand-written resolved tasks
// and ask it the paper's motivating question — who should answer
// "What are the advantages of B+ Tree over B Tree?" (§1).
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"crowdselect"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(out io.Writer) error {
	vocab := crowdselect.NewVocabulary()

	// A tiny history of resolved question-answering tasks. Worker 0 is
	// the database expert (high feedback on DB questions, low on
	// cooking), worker 1 is the cook, worker 2 answers everything at a
	// mediocre level — the prolific-but-average profile the paper's
	// Multinomial critique is about.
	history := []struct {
		question string
		scores   []crowdselect.Scored
	}{
		{"What are the advantages of B+ Tree over B Tree?", []crowdselect.Scored{{Worker: 0, Score: 5}, {Worker: 2, Score: 1}}},
		{"How does a database index speed up range queries?", []crowdselect.Scored{{Worker: 0, Score: 4}, {Worker: 2, Score: 2}}},
		{"Why do relational databases use B+ tree indexes?", []crowdselect.Scored{{Worker: 0, Score: 5}, {Worker: 2, Score: 1}}},
		{"When should a database table be denormalized?", []crowdselect.Scored{{Worker: 0, Score: 4}, {Worker: 2, Score: 1}}},
		{"How do I keep a sourdough starter alive?", []crowdselect.Scored{{Worker: 1, Score: 5}, {Worker: 2, Score: 2}}},
		{"What flour ratio makes pizza dough stretchy?", []crowdselect.Scored{{Worker: 1, Score: 4}, {Worker: 2, Score: 1}}},
		{"How long should bread dough proof in the fridge?", []crowdselect.Scored{{Worker: 1, Score: 5}, {Worker: 2, Score: 2}}},
		{"Which pan sears a steak best?", []crowdselect.Scored{{Worker: 1, Score: 4}, {Worker: 2, Score: 2}}},
	}

	// Each question was asked (in variants) several times; repeating
	// the history gives the tiny example enough evidence to separate
	// the two latent categories cleanly.
	var tasks []crowdselect.ResolvedTask
	for round := 0; round < 4; round++ {
		for _, h := range history {
			tasks = append(tasks, crowdselect.ResolvedTask{
				Bag:       crowdselect.NewBag(vocab, crowdselect.Tokenize(h.question)),
				Responses: h.scores,
			})
		}
	}

	cfg := crowdselect.NewConfig(2) // two latent categories
	model, stats, err := crowdselect.Train(tasks, 3, vocab.Size(), cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "trained TDPM: %d sweeps, converged=%v\n\n", stats.Sweeps, stats.Converged)

	names := []string{"db-expert", "cook", "generalist"}
	for _, question := range []string{
		"What are the advantages of B+ Tree over B Tree?",
		"What hydration should my bread dough have?",
	} {
		bag := crowdselect.NewBagKnown(vocab, crowdselect.Tokenize(question))
		cat := model.Project(bag) // Algorithm 3: project into latent space
		c := cat.Mean()
		fmt.Fprintf(out, "task: %q\n", question)
		for _, w := range model.SelectTopK(c, nil, 3) {
			fmt.Fprintf(out, "  %-12s predictive score %.2f\n", names[w], model.Score(w, c))
		}
		fmt.Fprintln(out)
	}
	return nil
}

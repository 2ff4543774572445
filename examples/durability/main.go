// Durability demo: the crowd database surviving a restart. The first
// "process lifetime" trains TDPM, opens a durable data directory,
// journals a burst of crowd activity (submit → answer → feedback),
// and shuts down cleanly. The second lifetime reopens the same
// directory and restores everything — store rows, and the skill
// posteriors the feedback taught the model — without retraining,
// through crowddb.OpenTenant: the verified model checkpoint, then the
// journal replayed through the manager's feedback path (DESIGN.md §7).
//
// This is the same lifecycle cmd/crowdd runs behind its -data-dir
// flag, driven in process through internal/crowddb.
//
// Run with:
//
//	go run ./examples/durability
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"crowdselect/internal/core"
	"crowdselect/internal/corpus"
	"crowdselect/internal/crowddb"
	"crowdselect/internal/eval"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run drives both lifetimes over a temp data directory, removed
// afterwards, and prints what each saw to out.
func run(out io.Writer) error {
	dir, err := os.MkdirTemp("", "crowdselect-durability-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// ---- first process lifetime: train, serve, journal, shut down ----

	d, err := corpus.Generate(corpus.Quora().Scaled(0.05))
	if err != nil {
		return err
	}
	model, _, err := core.Train(eval.ResolvedTasks(d), len(d.Workers), d.Vocab.Size(), core.NewConfig(8))
	if err != nil {
		return err
	}

	// One slice of the crowd database: its data directory, the store,
	// the model and the manager over both. On a fresh directory the seed
	// registers the dataset's workers, persists the dataset (the
	// vocabulary source of every restart) and writes generation 1.
	open := func(seed func() (*corpus.Dataset, *core.Model, error)) (*crowddb.Tenant, error) {
		return crowddb.OpenTenant(crowddb.SliceConfig{
			Dir:    dir,
			CrowdK: 3,
			// Every acknowledged mutation is fsynced before success —
			// the strictest policy; see SyncEvery/SyncInterval for the
			// group-commit trade-offs.
			DB:   crowddb.Options{Sync: crowddb.SyncAlways()},
			Seed: seed,
		})
	}
	sl, err := open(func() (*corpus.Dataset, *core.Model, error) { return d, model, nil })
	if err != nil {
		return err
	}
	mgr := sl.Manager

	// A burst of crowd activity, all journaled as it happens.
	resolved := 0
	for _, t := range d.Tasks[:6] {
		sub, err := mgr.SubmitTask(context.Background(), strings.Join(t.Tokens, " "), 3)
		if err != nil {
			return err
		}
		scores := make(map[int]float64)
		for rank, w := range sub.Workers {
			if err := mgr.CollectAnswer(sub.Task.ID, w, fmt.Sprintf("answer from %d", w)); err != nil {
				return err
			}
			scores[w] = float64(5 - rank) // feedback: earlier ranks scored higher
		}
		if _, err := mgr.ResolveTask(context.Background(), sub.Task.ID, scores); err != nil {
			return err
		}
		resolved++
	}
	st := sl.DB.Stats()
	fmt.Fprintf(out, "first lifetime: resolved %d tasks; journaled %d records (%d bytes, %d fsyncs)\n",
		resolved, st.RecordsWritten, st.BytesWritten, st.Fsyncs)

	// Graceful shutdown: compact (atomic snapshot + model checkpoint,
	// journal rotation) and close. A crash instead of this is fine
	// too — recovery would replay the journal; see the crash tests in
	// internal/crowddb.
	if err := sl.Close(); err != nil {
		return err
	}

	// ---- second process lifetime: restore without retraining ----

	// The written directory boots itself: the verified model checkpoint,
	// the dataset's vocabulary, and the journal tail replayed, resolve
	// events flowing through the manager's feedback path to rebuild the
	// exact skill posteriors. No seed is needed.
	sl2, err := open(nil)
	if err != nil {
		return err
	}
	db2, mgr2 := sl2.DB, sl2.Manager
	st2 := db2.Stats()
	fmt.Fprintf(out, "second lifetime: restored generation %d, replayed %d journal records in %dms\n",
		st2.Generation, st2.RecoveredRecords, st2.RecoveryMillis)
	fmt.Fprintf(out, "store after restart: %d workers, %d tasks\n", db2.Store().NumWorkers(), db2.Store().NumTasks())

	// The restored manager keeps serving — and keeps journaling.
	sub, err := mgr2.SubmitTask(context.Background(), strings.Join(d.Tasks[7].Tokens, " "), 3)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "post-restart selection for task %d: workers %v\n", sub.Task.ID, sub.Workers)
	return sl2.Close()
}

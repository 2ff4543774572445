// Durability demo: the crowd database surviving a restart. The first
// "process lifetime" trains TDPM, opens a durable data directory,
// journals a burst of crowd activity (submit → answer → feedback),
// and shuts down cleanly. The second lifetime reopens the same
// directory and restores everything — store rows, and the skill
// posteriors the feedback taught the model — without retraining,
// through DB.RecoverWith: the verified model checkpoint, then the
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
	"log"
	"os"
	"strings"

	"crowdselect/internal/core"
	"crowdselect/internal/corpus"
	"crowdselect/internal/crowddb"
	"crowdselect/internal/eval"
)

func main() {
	dir, err := os.MkdirTemp("", "crowdselect-durability-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// ---- first process lifetime: train, serve, journal, shut down ----

	d, err := corpus.Generate(corpus.Quora().Scaled(0.05))
	if err != nil {
		log.Fatal(err)
	}
	model, _, err := core.Train(eval.ResolvedTasks(d), len(d.Workers), d.Vocab.Size(), core.NewConfig(8))
	if err != nil {
		log.Fatal(err)
	}

	db, err := crowddb.Open(dir, crowddb.Options{
		// Every acknowledged mutation is fsynced before success —
		// the strictest policy; see SyncEvery/SyncInterval for the
		// group-commit trade-offs.
		Sync: crowddb.SyncAlways(),
	})
	if err != nil {
		log.Fatal(err)
	}
	store := db.Store()
	for _, w := range d.Workers {
		if _, err := store.AddWorker(w.ID, fmt.Sprintf("worker-%03d", w.ID)); err != nil {
			log.Fatal(err)
		}
	}
	cm := core.NewConcurrentModel(model)
	mgr, err := crowddb.NewManager(store, d.Vocab, cm, 3)
	if err != nil {
		log.Fatal(err)
	}
	// Wire the durability hooks: the model checkpoint written at each
	// compaction, quiesced so no feedback update tears it.
	db.SetModelSnapshotter(cm.Save)
	db.SetQuiescer(mgr.Quiesce)
	// The dataset carries the vocabulary; persist it so the restart
	// can project new tasks without regenerating the corpus.
	if err := d.SaveFile(db.DatasetPath()); err != nil {
		log.Fatal(err)
	}
	if err := db.Begin(); err != nil {
		log.Fatal(err)
	}

	// A burst of crowd activity, all journaled as it happens.
	resolved := 0
	for _, t := range d.Tasks[:6] {
		sub, err := mgr.SubmitTask(context.Background(), strings.Join(t.Tokens, " "), 3)
		if err != nil {
			log.Fatal(err)
		}
		scores := make(map[int]float64)
		for rank, w := range sub.Workers {
			if err := mgr.CollectAnswer(sub.Task.ID, w, fmt.Sprintf("answer from %d", w)); err != nil {
				log.Fatal(err)
			}
			scores[w] = float64(5 - rank) // feedback: earlier ranks scored higher
		}
		if _, err := mgr.ResolveTask(context.Background(), sub.Task.ID, scores); err != nil {
			log.Fatal(err)
		}
		resolved++
	}
	st := db.Stats()
	fmt.Printf("first lifetime: resolved %d tasks; journaled %d records (%d bytes, %d fsyncs)\n",
		resolved, st.RecordsWritten, st.BytesWritten, st.Fsyncs)

	// Graceful shutdown: compact (atomic snapshot + model checkpoint,
	// journal rotation) and close. A crash instead of this is fine
	// too — recovery would replay the journal; see the crash tests in
	// internal/crowddb.
	if err := db.Compact(); err != nil {
		log.Fatal(err)
	}
	if err := db.Close(); err != nil {
		log.Fatal(err)
	}

	// ---- second process lifetime: restore without retraining ----

	db2, err := crowddb.Open(dir, crowddb.Options{Sync: crowddb.SyncAlways()})
	if err != nil {
		log.Fatal(err)
	}
	if db2.Fresh() {
		log.Fatal("expected persisted state in the data directory")
	}
	// RecoverWith is the one boot of a written generation: it hands the
	// model checkpoint Open verified to the builder, wires the built
	// stack into compaction and replays the journal tail, resolve events
	// flowing through the manager's feedback path to rebuild the exact
	// skill posteriors.
	var d2 *corpus.Dataset
	mgr2, _, err := db2.RecoverWith(func(datasetPath string, model *core.Model, store *crowddb.Store) (*crowddb.Manager, *core.ConcurrentModel, error) {
		d, err := corpus.LoadFile(datasetPath)
		if err != nil {
			return nil, nil, err
		}
		d2 = d
		cm := core.NewConcurrentModel(model)
		mgr, err := crowddb.NewManager(store, d.Vocab, cm, 3)
		return mgr, cm, err
	})
	if err != nil {
		log.Fatal(err)
	}
	st2 := db2.Stats()
	fmt.Printf("second lifetime: restored generation %d, replayed %d journal records in %dms\n",
		st2.Generation, st2.RecoveredRecords, st2.RecoveryMillis)
	fmt.Printf("store after restart: %d workers, %d tasks\n", db2.Store().NumWorkers(), db2.Store().NumTasks())

	// The restored manager keeps serving — and keeps journaling.
	sub, err := mgr2.SubmitTask(context.Background(), strings.Join(d2.Tasks[7].Tokens, " "), 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("post-restart selection for task %d: workers %v\n", sub.Task.ID, sub.Workers)
	if err := db2.Close(); err != nil {
		log.Fatal(err)
	}
}

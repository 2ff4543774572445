package crowddb

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"crowdselect/internal/core"
	"crowdselect/internal/corpus"
	"crowdselect/internal/text"
)

// goldenPostFeedbackModel is the model_digest a durable node reports
// after the fixed script below, on the platform of internal/core's
// TestGoldenNumerics. Where that test pins the kernels, this one pins
// the whole red path through the store — task text → tokens → bag →
// projection → posterior fold, in journal order — so a change to how
// bags are built (or to anything else between the request and the fold)
// must leave it untouched. Like the kernel constants it is for
// GOARCH=amd64 and 386 and was last cut for core.KernelVersion 5.
const goldenPostFeedbackModel = "cc3671cef74ced6e1e3a05c27859da82e0635e8912693d773476d9e34bea7847"

func TestGoldenModelDigestThroughStore(t *testing.T) {
	if runtime.GOARCH != "amd64" && runtime.GOARCH != "386" {
		t.Skipf("golden constant is for GOARCH=amd64 and 386 (FMA fusion differs on %s)", runtime.GOARCH)
	}
	p := corpus.Quora().Scaled(0.04)
	p.Seed = 11
	d := corpus.MustGenerate(p)
	cfg := core.NewConfig(6)
	cfg.MaxIter = 8
	cfg.InnerIter = 2
	model, _, err := core.Train(trainingTasks(d), len(d.Workers), d.Vocab.Size(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Generated category terms are spelled "c09_t0179", which the
	// tokeniser splits: serve the same term ids under spellings that
	// survive it, or no category term would ever reach a bag.
	safe := func(term string) string { return strings.ReplaceAll(term, "_", "") }
	vocab := text.NewVocabulary()
	for _, term := range d.Vocab.Terms() {
		vocab.Intern(safe(term))
	}
	if vocab.Size() != d.Vocab.Size() {
		t.Fatalf("respelling merged terms: %d of %d left", vocab.Size(), d.Vocab.Size())
	}
	d.Vocab = vocab
	rig := openDurable(t, t.TempDir(), d, model, Options{Sync: SyncEvery(1024)})
	defer rig.db.Close()

	// Task i's text is dataset task i's tokens the way a requester would
	// type them: mixed case, punctuation between words, stopwords and an
	// unknown word thrown in, every third text with its first word twice.
	textOf := func(i int) string {
		var words []string
		for _, tok := range d.Tasks[i].Tokens {
			words = append(words, safe(tok))
		}
		if i%3 == 0 {
			words = append(words, words[0])
		}
		for w := range words {
			if (i+w)%2 == 0 {
				words[w] = strings.ToUpper(words[w])
			}
		}
		return "What is the " + strings.Join(words, [...]string{" ", ", ", "; ", " - "}[i%4]) + fmt.Sprintf(" of unknownword%d?", i)
	}
	ctx := context.Background()
	for i := 0; i < 24; i++ {
		sub, err := rig.mgr.SubmitTask(ctx, textOf(i), 3)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		scores := make(map[int]float64, len(sub.Workers))
		for j, w := range sub.Workers {
			if err := rig.mgr.CollectAnswer(sub.Task.ID, w, "an answer"); err != nil {
				t.Fatalf("answer %d/%d: %v", i, w, err)
			}
			scores[w] = float64(1 + (2*i+j)%5)
		}
		if _, err := rig.mgr.ResolveTask(ctx, sub.Task.ID, scores); err != nil {
			t.Fatalf("resolve %d: %v", i, err)
		}
		if i%6 == 5 {
			// The cross-shard leg folds through the same builder.
			forward := map[int]float64{(7 * i) % len(d.Workers): float64(1 + i%5)}
			if err := rig.mgr.ApplyModelFeedback(ctx, -1, textOf(i+24), forward); err != nil {
				t.Fatalf("model feedback %d: %v", i, err)
			}
		}
	}
	cut, err := NewDigestCutter(rig.db, rig.mgr).Cut()
	if err != nil {
		t.Fatal(err)
	}
	if cut.Model != goldenPostFeedbackModel {
		t.Errorf("post-feedback model_digest = %s, want %s", cut.Model, goldenPostFeedbackModel)
	}
}

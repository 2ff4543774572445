package main

import (
	"path/filepath"
	"reflect"
	"testing"

	"crowdselect/internal/corpus"
	"crowdselect/internal/text"
)

// smallPlatform writes a down-scaled Quora dataset and loads it the way
// a run does.
func smallPlatform(t *testing.T, offline float64) *platform {
	t.Helper()
	d, err := generateSafe(corpus.Quora().Scaled(0.05))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "small.json")
	if err := d.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	p, err := loadPlatform(path, offline)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestVocabularySurvivesTheTokenizer(t *testing.T) {
	if toks := text.Tokenize("c09_t0179"); len(toks) == 1 {
		t.Fatal("the tokenizer keeps a stock category term whole; the respelling is no longer needed")
	}
	p := smallPlatform(t, 0.9)
	var category int
	for _, term := range p.d.VocabTerms {
		if toks := text.Tokenize(term); len(toks) != 1 || toks[0] != term {
			t.Fatalf("term %q tokenizes to %v", term, toks)
		}
		if term[0] == 'c' && term[1] != 'o' {
			category++
		}
	}
	if category == 0 {
		t.Error("no category terms in the vocabulary")
	}
}

func TestPlatformDoesNotDependOnSeed(t *testing.T) {
	a, b := smallPlatform(t, 0.9), smallPlatform(t, 0.9)
	if !reflect.DeepEqual(a.d.VocabTerms, b.d.VocabTerms) || len(a.d.Tasks) != len(b.d.Tasks) {
		t.Error("two loads of the platform differ")
	}
	if !reflect.DeepEqual(a.offline, b.offline) || !reflect.DeepEqual(a.online, b.online) {
		t.Error("the online subset differs between two loads")
	}
	n := len(a.d.Workers)
	if len(a.offline) != int(0.9*float64(n)) || len(a.offline)+len(a.online) != n {
		t.Errorf("%d offline and %d online of %d workers", len(a.offline), len(a.online), n)
	}
	seen := map[int]bool{}
	for _, id := range append(append([]int(nil), a.offline...), a.online...) {
		if seen[id] {
			t.Fatalf("worker %d is in both subsets or twice in one", id)
		}
		seen[id] = true
	}
	// Drawing texts with different seeds leaves the platform alone.
	before := append([]int(nil), a.online...)
	if _, err := genTexts(a.d, 1, 50); err != nil {
		t.Fatal(err)
	}
	if _, err := genTexts(a.d, 2, 50); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, a.online) || !reflect.DeepEqual(a.d.VocabTerms, b.d.VocabTerms) {
		t.Error("generating texts changed the platform")
	}
}

func TestTextGenerator(t *testing.T) {
	p := smallPlatform(t, 0)
	const n = 3000
	a, err := genTexts(p.d, 7, n)
	if err != nil {
		t.Fatal(err)
	}
	again, err := genTexts(p.d, 7, n)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, again) {
		t.Error("the same seed gave different texts")
	}
	other, err := genTexts(p.d, 8, n)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, other) {
		t.Error("different seeds gave the same texts")
	}
	// The projection cache keys on the bag, so bags — not strings — must
	// be distinct, and every text must reach core.Project's real path
	// under the server's own tokenizer.
	bags := map[string]bool{}
	for _, s := range a {
		bag := text.NewBagKnown(p.d.Vocab, text.Tokenize(s))
		if int(bag.Total()) < minTextTerms {
			t.Fatalf("text %q has %v in-vocabulary terms, want at least %d", s, bag.Total(), minTextTerms)
		}
		key := bagKeyOf(bag)
		if bags[key] {
			t.Fatalf("two texts share the bag of %q", s)
		}
		bags[key] = true
	}
	// A prefix of a longer pool is the shorter pool: the hot pool is the
	// head of the same stream.
	head, err := genTexts(p.d, 7, hotPool)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(head, a[:hotPool]) {
		t.Error("the 64-text pool is not the head of the longer pool of the same seed")
	}
}

package text_test

import (
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"crowdselect/internal/corpus"
	"crowdselect/internal/text"
)

// mapBag is how every bag was built before text.BagBuilder: count into
// a map, sort the keys, read the counts back.
func mapBag(tokens []string, id func(string) (int, bool)) text.Bag {
	counts := make(map[int]float64)
	for _, tok := range tokens {
		if i, ok := id(tok); ok {
			counts[i]++
		}
	}
	ids := make([]int, 0, len(counts))
	for i := range counts {
		ids = append(ids, i)
	}
	sort.Ints(ids)
	b := text.Bag{IDs: ids, Counts: make([]float64, len(ids))}
	for p, i := range ids {
		b.Counts[p] = counts[i]
	}
	return b
}

// sameTerms compares element-wise; unlike reflect.DeepEqual it takes a
// builder's empty bag (nil windows of its arenas) for the empty bag.
func sameTerms(a, b text.Bag) bool {
	return slices.Equal(a.IDs, b.IDs) && slices.Equal(a.Counts, b.Counts)
}

// TestBagFormsMatchMapForm: on every task of a generated platform,
// NewBag, NewBagKnown, BagFromCounts and the one-pass text form build
// the bag the map form built — same ids, same counts, and non-nil
// slices where the map form had them. Every second task has a third of
// its tokens respelled to unknown terms, so NewBagKnown has something
// to drop.
func TestBagFormsMatchMapForm(t *testing.T) {
	d := corpus.MustGenerate(corpus.Quora().Scaled(0.04))
	var bb text.BagBuilder
	fresh := text.NewVocabulary()
	freshRef := text.NewVocabulary()
	for j, task := range d.Tasks {
		tokens := append([]string(nil), task.Tokens...)
		if j%2 == 1 {
			for i := range tokens {
				if i%3 == 0 {
					tokens[i] = "unknown" + tokens[i]
				}
			}
		}
		want := mapBag(tokens, d.Vocab.ID)
		if got := text.NewBagKnown(d.Vocab, tokens); !reflect.DeepEqual(got, want) {
			t.Fatalf("task %d: NewBagKnown = %+v, map form %+v", j, got, want)
		}
		counts := make(map[int]float64, len(want.IDs))
		for p, id := range want.IDs {
			counts[id] = want.Counts[p]
		}
		if got := text.BagFromCounts(counts); !reflect.DeepEqual(got, want) {
			t.Fatalf("task %d: BagFromCounts = %+v, map form %+v", j, got, want)
		}
		// Generated terms are spelled "c09_t0179" and the tokeniser
		// splits on '_': respell them so the text survives it whole.
		safe := strings.ReplaceAll(strings.Join(tokens, " "), "_", "")
		wantText := mapBag(text.Tokenize(safe), d.Vocab.ID)
		if got := bb.KnownText(d.Vocab, safe); !sameTerms(got, wantText) {
			t.Fatalf("task %d: BagBuilder.KnownText = %+v, map form %+v", j, got, wantText)
		}
		wantNew := mapBag(tokens, func(tok string) (int, bool) { return freshRef.Intern(tok), true })
		if got := text.NewBag(fresh, tokens); !reflect.DeepEqual(got, wantNew) {
			t.Fatalf("task %d: NewBag = %+v, map form %+v", j, got, wantNew)
		}
	}
	if got, want := text.NewBagKnown(d.Vocab, nil), mapBag(nil, d.Vocab.ID); !reflect.DeepEqual(got, want) {
		t.Errorf("empty NewBagKnown = %#v, map form %#v", got, want)
	}
}

package text

import (
	"slices"
	"strings"
	"testing"
	"unicode"
)

// FuzzTokenize checks Tokenize's invariants on arbitrary input: no
// panic, lower-case output, no stopwords, and no separator characters
// inside tokens.
func FuzzTokenize(f *testing.F) {
	seeds := []string{
		"",
		"What are the advantages of B+ Tree over B Tree?",
		"C# vs Go 1.22: generics?",
		"日本語のトークン化 & emoji 🙂 test",
		strings.Repeat("a", 4096),
		"'quotes' \"and\" `ticks`",
		"a-b_c+d#e",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		tokens := Tokenize(s)
		for _, tok := range tokens {
			if tok == "" {
				t.Fatal("empty token")
			}
			if tok != strings.ToLower(tok) {
				t.Fatalf("token %q not lower-case", tok)
			}
			if IsStopword(tok) {
				t.Fatalf("stopword %q survived", tok)
			}
			for _, r := range tok {
				if !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '+' && r != '#' {
					t.Fatalf("separator %q inside token %q", r, tok)
				}
			}
		}
		// Tokenization must be idempotent under re-joining: tokens of
		// the joined tokens are the tokens themselves.
		again := Tokenize(strings.Join(tokens, " "))
		if len(again) != len(tokens) {
			t.Fatalf("re-tokenization changed count: %d -> %d", len(tokens), len(again))
		}
		for i := range tokens {
			if tokens[i] != again[i] {
				t.Fatalf("re-tokenization changed token %d: %q -> %q", i, tokens[i], again[i])
			}
		}
	})
}

// FuzzBagOps checks bag construction and similarity bounds on
// arbitrary token streams.
func FuzzBagOps(f *testing.F) {
	f.Add("a b c", "b c d")
	f.Add("", "x")
	f.Add("tree tree tree", "tree")
	f.Fuzz(func(t *testing.T, s1, s2 string) {
		v := NewVocabulary()
		b1 := NewBag(v, Tokenize(s1))
		b2 := NewBag(v, Tokenize(s2))
		if cos := b1.Cosine(b2); cos < 0 || cos > 1+1e-9 {
			t.Fatalf("cosine out of range: %v", cos)
		}
		if j := Jaccard(b1, b2); j < 0 || j > 1 {
			t.Fatalf("jaccard out of range: %v", j)
		}
		m := b1.Merge(b2)
		if m.Total() != b1.Total()+b2.Total() {
			t.Fatalf("merge total %v != %v + %v", m.Total(), b1.Total(), b2.Total())
		}
	})
}

// refBagKnown is the bag builder this package had before BagBuilder —
// count into a map, sort the keys — over the strings.ToLower +
// strings.FieldsFunc tokeniser. It is the oracle the one-pass builder
// is held to.
func refBagKnown(v *Vocabulary, s string) Bag {
	fields := strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '+' && r != '#'
	})
	counts := make(map[int]float64)
	for _, f := range fields {
		if id, ok := v.ID(f); ok && !stopwords[f] {
			counts[id]++
		}
	}
	return BagFromCounts(counts)
}

func equalBags(a, b Bag) bool {
	return slices.Equal(a.IDs, b.IDs) && slices.Equal(a.Counts, b.Counts)
}

// FuzzBagOfText: for arbitrary text the one-pass builder returns,
// element for element, the bag of NewBagKnown(v, Tokenize(s)) and of
// the map-based reference — whatever the builder held before, and
// without disturbing a bag it cut earlier.
func FuzzBagOfText(f *testing.F) {
	v := NewVocabulary()
	for _, term := range []string{
		"b+", "tree", "c#", "go", "index", "ǆ", "i", "i̇", "ſ", "k", "s", "日本語", "🙂",
		"the", // a stopword that is also interned must still be dropped
		"a1", "1", "über", "straße", "ß", "ss",
	} {
		v.Intern(term)
	}
	for _, s := range []string{
		"",
		"What are the advantages of B+ Tree over B Tree?",
		"C# vs Go 1.22: THE index, the Index",
		"ǅ ǅǄ İ İi ſ ſS K KELVIN ÜBER Straße",
		"tree\xfftree \xc3 index\xe2\x28\xa1go \xf0\x9f",
		"a-b_c+d#e b+_tree c#+b+ ++ ##",
		"日本語のトークン化 & emoji 🙂 test 日本語",
		strings.Repeat("tree go ", 300),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want := NewBagKnown(v, Tokenize(s))
		if ref := refBagKnown(v, s); !equalBags(want, ref) {
			t.Fatalf("NewBagKnown(Tokenize(%q)) = %+v, map reference %+v", s, want, ref)
		}
		var b BagBuilder
		earlier := b.KnownText(v, "tree go tree index")
		got := b.KnownText(v, s)
		if !equalBags(got, want) {
			t.Fatalf("KnownText(%q) = %+v, want %+v", s, got, want)
		}
		if !equalBags(earlier, Bag{IDs: []int{1, 3, 4}, Counts: []float64{2, 1, 1}}) {
			t.Fatalf("building %q rewrote an earlier bag of the same builder: %+v", s, earlier)
		}
		b.Reset()
		if again := b.KnownText(v, s); !equalBags(again, want) {
			t.Fatalf("KnownText(%q) on a reset builder = %+v, want %+v", s, again, want)
		}
	})
}

package text

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestVocabularyIntern(t *testing.T) {
	v := NewVocabulary()
	a := v.Intern("tree")
	b := v.Intern("index")
	if a == b {
		t.Fatal("distinct terms share an id")
	}
	if got := v.Intern("tree"); got != a {
		t.Errorf("re-interned id = %d, want %d", got, a)
	}
	if v.Size() != 2 {
		t.Errorf("Size = %d, want 2", v.Size())
	}
	if v.Term(a) != "tree" || v.Term(b) != "index" {
		t.Error("Term round-trip failed")
	}
	if _, ok := v.byTerm["missing"]; ok {
		t.Error("unknown term reported present")
	}
	if got := v.Terms(); !reflect.DeepEqual(got, []string{"tree", "index"}) {
		t.Errorf("Terms = %v", got)
	}
}

func TestTokenize(t *testing.T) {
	got := Tokenize("What are the advantages of B+ Tree over B Tree?")
	want := []string{"advantages", "b+", "tree", "b", "tree"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
}

func TestTokenizeKeepsHashAndDigits(t *testing.T) {
	got := Tokenize("C# vs Go 1.22: generics?")
	want := []string{"c#", "vs", "go", "1", "22", "generics"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
}

func TestTokenizeEmptyAndStopwordsOnly(t *testing.T) {
	if got := Tokenize(""); len(got) != 0 {
		t.Errorf("Tokenize empty = %v", got)
	}
	if got := Tokenize("what is the"); len(got) != 0 {
		t.Errorf("stopwords survived: %v", got)
	}
}

func TestBagCountsAndPaperExample(t *testing.T) {
	v := NewVocabulary()
	// Figure 2: t = {(advantage,1),(B,1),(B+,1),(over,1),(tree,2),(what,1)}
	// after stopword removal "over"/"what" drop; tree appears twice.
	b := NewBag(v, Tokenize("What are the advantages of B+ Tree over B Tree?"))
	if b.Len() != 4 { // advantages, b+, tree, b
		t.Fatalf("Len = %d, want 4 (%v)", b.Len(), b)
	}
	if got := count(b, v.byTerm["tree"]); got != 2 {
		t.Errorf("count(tree) = %v, want 2", got)
	}
	if got := b.Total(); got != 5 {
		t.Errorf("Total = %v, want 5", got)
	}
	if got := count(b, 9999); got != 0 {
		t.Errorf("missing term count = %v", got)
	}
}

func TestBagIDsSorted(t *testing.T) {
	v := NewVocabulary()
	// Intern in an order that would be unsorted if preserved.
	v.Intern("z")
	b := NewBag(v, []string{"b", "a", "z", "a"})
	for i := 1; i < len(b.IDs); i++ {
		if b.IDs[i-1] >= b.IDs[i] {
			t.Fatalf("ids not strictly sorted: %v", b.IDs)
		}
	}
}

func TestNewBagKnownDropsUnknown(t *testing.T) {
	v := NewVocabulary()
	v.Intern("tree")
	b := NewBagKnown(v, []string{"tree", "quantum", "tree"})
	if b.Len() != 1 || b.Total() != 2 {
		t.Errorf("NewBagKnown = %+v", b)
	}
}

func TestBagDotCosine(t *testing.T) {
	v := NewVocabulary()
	a := NewBag(v, []string{"x", "y", "y"})
	b := NewBag(v, []string{"y", "z"})
	if got := a.Dot(b); got != 2 {
		t.Errorf("Dot = %v, want 2", got)
	}
	wantCos := 2 / (math.Sqrt(5) * math.Sqrt(2))
	if got := a.Cosine(b); math.Abs(got-wantCos) > 1e-12 {
		t.Errorf("Cosine = %v, want %v", got, wantCos)
	}
	empty := Bag{}
	if got := a.Cosine(empty); got != 0 {
		t.Errorf("Cosine with empty = %v, want 0", got)
	}
}

func TestJaccard(t *testing.T) {
	v := NewVocabulary()
	a := NewBag(v, []string{"x", "y"})
	b := NewBag(v, []string{"y", "z"})
	if got := Jaccard(a, b); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("Jaccard = %v, want 1/3", got)
	}
	if got := Jaccard(a, a); got != 1 {
		t.Errorf("self Jaccard = %v, want 1", got)
	}
	if got := Jaccard(Bag{}, Bag{}); got != 1 {
		t.Errorf("empty Jaccard = %v, want 1", got)
	}
	if got := Jaccard(a, Bag{}); got != 0 {
		t.Errorf("Jaccard with empty = %v, want 0", got)
	}
}

// Property: cosine similarity is symmetric and bounded in [0, 1] for
// count vectors (all non-negative).
func TestCosineProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		a := randBag(rng)
		b := randBag(rng)
		ab, ba := a.Cosine(b), b.Cosine(a)
		if math.Abs(ab-ba) > 1e-12 {
			t.Fatalf("cosine asymmetric: %v vs %v", ab, ba)
		}
		if ab < 0 || ab > 1+1e-12 {
			t.Fatalf("cosine out of range: %v", ab)
		}
	}
}

// Property: Jaccard is symmetric, in [0, 1], and 1 on identical sets.
func TestJaccardProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 200; trial++ {
		a, b := randBag(rng), randBag(rng)
		ab, ba := Jaccard(a, b), Jaccard(b, a)
		if ab != ba || ab < 0 || ab > 1 {
			t.Fatalf("Jaccard property violated: %v vs %v", ab, ba)
		}
		if got := Jaccard(a, a); got != 1 {
			t.Fatalf("self Jaccard = %v", got)
		}
	}
}

func TestBagFromCountsMatchesQuick(t *testing.T) {
	f := func(raw map[int8]uint8) bool {
		counts := make(map[int]float64)
		for k, c := range raw {
			if c > 0 {
				counts[int(k)] = float64(c)
			}
		}
		b := BagFromCounts(counts)
		if b.Len() != len(counts) {
			return false
		}
		for id, c := range counts {
			if count(b, id) != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// count returns the count of term id in b, or 0 when absent.
func count(b Bag, id int) float64 {
	if i, ok := slices.BinarySearch(b.IDs, id); ok {
		return b.Counts[i]
	}
	return 0
}

func randBag(rng *rand.Rand) Bag {
	counts := make(map[int]float64)
	n := rng.Intn(10)
	for i := 0; i < n; i++ {
		counts[rng.Intn(20)] = float64(1 + rng.Intn(5))
	}
	return BagFromCounts(counts)
}

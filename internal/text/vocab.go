// Package text provides the task-text substrate of §4.1.1 of the
// paper: tokenization, vocabulary interning, bag-of-vocabulary
// representations, cosine similarity (the VSM baseline's ranking
// function) and Jaccard similarity (the Yahoo! Answer best-answer
// feedback of §4.1.5).
package text

import (
	"math"
	"sort"
	"strings"
	"unicode"
)

// Vocabulary interns terms to dense integer ids. The zero value is not
// usable; call NewVocabulary.
type Vocabulary struct {
	byTerm map[string]int
	terms  []string
}

// NewVocabulary returns an empty vocabulary.
func NewVocabulary() *Vocabulary {
	return &Vocabulary{byTerm: make(map[string]int)}
}

// Intern returns the id for term, assigning the next free id if the
// term is new.
func (v *Vocabulary) Intern(term string) int {
	if id, ok := v.byTerm[term]; ok {
		return id
	}
	id := len(v.terms)
	v.byTerm[term] = id
	v.terms = append(v.terms, term)
	return id
}

// Term returns the term with the given id. It panics on an unknown id.
func (v *Vocabulary) Term(id int) string { return v.terms[id] }

// Size returns the number of interned terms.
func (v *Vocabulary) Size() int { return len(v.terms) }

// Terms returns a copy of all interned terms in id order.
func (v *Vocabulary) Terms() []string {
	out := make([]string, len(v.terms))
	copy(out, v.terms)
	return out
}

// stopwords are dropped by Tokenize; the set covers the high-frequency
// English function words that carry no category signal (cf. the task
// example of Figure 2, where "what" and "over" are uninformative).
var stopwords = map[string]bool{
	"a": true, "an": true, "and": true, "are": true, "as": true,
	"at": true, "be": true, "by": true, "can": true, "do": true,
	"does": true, "for": true, "from": true, "how": true, "i": true,
	"in": true, "is": true, "it": true, "of": true, "on": true,
	"or": true, "over": true, "that": true, "the": true, "this": true,
	"to": true, "was": true, "what": true, "when": true, "where": true,
	"which": true, "who": true, "why": true, "will": true, "with": true,
	"you": true, "your": true,
}

// isSeparator is the token boundary rule: any rune that is not a
// letter, a digit, '+' or '#'. Tokenize and the one-pass bag builder
// (BagBuilder.KnownText) both apply it to the lower-cased rune.
func isSeparator(r rune) bool {
	return !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '+' && r != '#'
}

// Tokenize lower-cases s, splits it on any run of characters that are
// not letters, digits, '+' or '#' (so "b+" and "c#" survive, matching
// the paper's B+-tree example), and drops stopwords.
func Tokenize(s string) []string {
	fields := strings.FieldsFunc(strings.ToLower(s), isSeparator)
	out := fields[:0]
	for _, f := range fields {
		if stopwords[f] {
			continue
		}
		out = append(out, f)
	}
	return out
}

// Bag is a sparse bag of vocabularies: parallel slices of term ids and
// counts, sorted by id. It mirrors the paper's task representation
// tⱼ = {(v₁, #v₁), …}.
type Bag struct {
	IDs    []int
	Counts []float64
}

// NewBag interns tokens into v and returns their bag representation.
func NewBag(v *Vocabulary, tokens []string) Bag {
	b := builderFor(len(tokens))
	for _, tok := range tokens {
		b.ids = append(b.ids, v.Intern(tok))
	}
	return b.seal(0)
}

// NewBagKnown builds a bag from tokens using only terms already in v;
// unknown terms are dropped. It is used when projecting a new task
// against a trained model whose β matrix is fixed.
func NewBagKnown(v *Vocabulary, tokens []string) Bag {
	b := builderFor(len(tokens))
	for _, tok := range tokens {
		if id, ok := v.byTerm[tok]; ok {
			b.ids = append(b.ids, id)
		}
	}
	return b.seal(0)
}

// BagFromCounts builds a bag directly from an id→count map.
func BagFromCounts(counts map[int]float64) Bag {
	ids := make([]int, 0, len(counts))
	for id := range counts {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	b := Bag{IDs: ids, Counts: make([]float64, len(ids))}
	for i, id := range ids {
		b.Counts[i] = counts[id]
	}
	return b
}

// Len returns the number of distinct terms.
func (b Bag) Len() int { return len(b.IDs) }

// Total returns the total token count Σ #v.
func (b Bag) Total() float64 {
	var s float64
	for _, c := range b.Counts {
		s += c
	}
	return s
}

// Dot returns the sparse inner product of two bags.
func (b Bag) Dot(o Bag) float64 {
	var s float64
	i, j := 0, 0
	for i < len(b.IDs) && j < len(o.IDs) {
		switch {
		case b.IDs[i] < o.IDs[j]:
			i++
		case b.IDs[i] > o.IDs[j]:
			j++
		default:
			s += b.Counts[i] * o.Counts[j]
			i++
			j++
		}
	}
	return s
}

// Norm2 returns the Euclidean norm of the count vector.
func (b Bag) Norm2() float64 {
	var s float64
	for _, c := range b.Counts {
		s += c * c
	}
	return math.Sqrt(s)
}

// Cosine returns the cosine similarity of two bags (0 when either is
// empty). It is the VSM ranking score of §7.2.1.
func (b Bag) Cosine(o Bag) float64 {
	nb, no := b.Norm2(), o.Norm2()
	if nb == 0 || no == 0 {
		return 0
	}
	return b.Dot(o) / (nb * no)
}

// Jaccard returns the Jaccard similarity |A∩B| / |A∪B| of the two
// bags' term sets. Two empty bags have similarity 1.
func Jaccard(a, b Bag) float64 {
	if len(a.IDs) == 0 && len(b.IDs) == 0 {
		return 1
	}
	var inter int
	i, j := 0, 0
	for i < len(a.IDs) && j < len(b.IDs) {
		switch {
		case a.IDs[i] < b.IDs[j]:
			i++
		case a.IDs[i] > b.IDs[j]:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	union := len(a.IDs) + len(b.IDs) - inter
	return float64(inter) / float64(union)
}

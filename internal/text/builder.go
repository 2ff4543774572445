package text

import (
	"slices"
	"unicode"
	"unicode/utf8"
)

// BagBuilder is the one bag builder and its storage: every term id of a
// text is collected into an arena, sorted, and run-lengthed in place
// into IDs and Counts — no id→count map, and for KnownText no token
// strings. NewBag and NewBagKnown run it over exactly sized storage of
// their own; a serving path keeps one builder per request batch and
// builds every bag of the batch into it, so a warm builder allocates
// nothing.
//
// Bags returned by a builder's methods are windows of its arenas: they
// stay valid, and keep their contents, until Reset — later bags are cut
// from behind them. The zero value is ready to use; a builder is not
// safe for concurrent use.
type BagBuilder struct {
	tok    []byte // the token being scanned, lower-cased
	ids    []int
	counts []float64
}

// builderFor sizes a builder for one bag of at most n tokens, so that
// the bag it seals owns its storage outright (non-nil even when empty).
func builderFor(n int) BagBuilder {
	return BagBuilder{ids: make([]int, 0, n), counts: make([]float64, 0, n)}
}

// Reset forgets every bag built so far and keeps the storage. Bags
// returned before the call must no longer be read.
func (b *BagBuilder) Reset() {
	b.ids, b.counts = b.ids[:0], b.counts[:0]
}

// KnownText is NewBagKnown(v, Tokenize(s)) in one pass over s: runes are
// lower-cased and split by Tokenize's rule into a reused token buffer,
// and each token is looked up as bytes, so no lower-cased copy of s and
// no token string is ever built. (An invalid UTF-8 byte decodes to
// U+FFFD, a separator — as it does after strings.ToLower.)
func (b *BagBuilder) KnownText(v *Vocabulary, s string) Bag {
	start := len(b.ids)
	tok := b.tok[:0]
	for _, r := range s {
		if r = unicode.ToLower(r); !isSeparator(r) {
			tok = utf8.AppendRune(tok, r)
			continue
		}
		b.addKnown(v, tok)
		tok = tok[:0]
	}
	b.addKnown(v, tok)
	b.tok = tok
	return b.seal(start)
}

// addKnown collects the id of one scanned token unless it is empty, a
// stopword or unknown to v. Indexing a map by string(tok) does not
// allocate.
func (b *BagBuilder) addKnown(v *Vocabulary, tok []byte) {
	if len(tok) == 0 || stopwords[string(tok)] {
		return
	}
	if id, ok := v.byTerm[string(tok)]; ok {
		b.ids = append(b.ids, id)
	}
}

// seal turns the term ids appended since start into a bag: sorted,
// equal neighbours folded into one id and its multiplicity.
func (b *BagBuilder) seal(start int) Bag {
	ids := b.ids[start:]
	slices.Sort(ids)
	b.counts = slices.Grow(b.counts, len(ids))
	cstart, n := len(b.counts), 0
	for i := 0; i < len(ids); {
		j := i + 1
		for j < len(ids) && ids[j] == ids[i] {
			j++
		}
		ids[n] = ids[i]
		b.counts = append(b.counts, float64(j-i))
		n++
		i = j
	}
	b.ids = b.ids[:start+n]
	// Full slice expressions: appending to a bag must not write into
	// the one cut after it.
	return Bag{IDs: b.ids[start : start+n : start+n], Counts: b.counts[cstart : cstart+n : cstart+n]}
}

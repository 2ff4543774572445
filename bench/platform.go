package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"crowdselect/internal/corpus"
	"crowdselect/internal/text"
)

// platformSeed fixes everything about a workload's platform that must
// not move with --seed: the generated dataset and which workers are
// online.
const platformSeed = 20150323

// platform is the seed-independent half of a workload's input: the
// dataset crowdd boots from and the online subset set through the
// presence API.
type platform struct {
	d       *corpus.Dataset
	path    string // dataset file handed to crowdd -data
	offline []int  // sorted worker ids switched offline before traffic
	online  []int  // sorted complement
}

// tokenizerSafe respells a generated term so that text.Tokenize returns
// it whole. corpus.Generate names category terms "c09_t0179" and the
// tokenizer splits on '_', so through the HTTP text API no category
// term of a stock dataset can ever reach a bag.
func tokenizerSafe(term string) string { return strings.ReplaceAll(term, "_", "") }

// datasetPath is where the dataset for a crowd of the given size is
// cached between runs; generation takes seconds, and every run of a
// workload must see the same file.
func datasetPath(workDir string, workers int) string {
	return filepath.Join(workDir, "data", fmt.Sprintf("quora-w%d.json", workers))
}

// generateSafe generates the profile's dataset and rewrites its
// vocabulary to tokenizer-safe spellings.
func generateSafe(p corpus.Profile) (*corpus.Dataset, error) {
	d, err := corpus.Generate(p)
	if err != nil {
		return nil, err
	}
	for i, term := range d.VocabTerms {
		d.VocabTerms[i] = tokenizerSafe(term)
	}
	for _, t := range d.Tasks {
		for i, tok := range t.Tokens {
			t.Tokens[i] = tokenizerSafe(tok)
		}
	}
	return d, nil
}

// ensureDataset stores the Quora profile with the given crowd size at
// path, unless a previous run already did. The file is what crowdd
// boots from, and loadPlatform reads it back, so that the benchmark and
// the servers agree on every byte.
func ensureDataset(path string, workers int) error {
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	p := corpus.Quora()
	p.Workers = workers
	d, err := generateSafe(p)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := d.SaveFile(tmp); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// loadPlatform reads the cached dataset and derives the online subset.
// offlineShare of the workers, chosen by platformSeed alone, go
// offline.
func loadPlatform(path string, offlineShare float64) (*platform, error) {
	d, err := corpus.LoadFile(path)
	if err != nil {
		return nil, err
	}
	for _, term := range d.VocabTerms {
		if toks := text.Tokenize(term); len(toks) != 1 || toks[0] != term {
			return nil, fmt.Errorf("dataset %s: term %q does not survive the tokenizer", path, term)
		}
	}
	p := &platform{d: d, path: path}
	perm := rand.New(rand.NewSource(platformSeed)).Perm(len(d.Workers))
	cut := int(offlineShare * float64(len(perm)))
	p.offline = append(p.offline, perm[:cut]...)
	p.online = append(p.online, perm[cut:]...)
	sort.Ints(p.offline)
	sort.Ints(p.online)
	return p, nil
}

// bagKeyOf identifies a bag: two texts with the same key are the same
// entry of the projection cache.
func bagKeyOf(b text.Bag) string {
	key := make([]byte, 0, 8*len(b.IDs))
	for i, id := range b.IDs {
		key = strconv.AppendInt(key, int64(id), 10)
		key = append(key, ':')
		key = strconv.AppendInt(key, int64(b.Counts[i]), 10) // counts of tokens are whole
		key = append(key, ' ')
	}
	return string(key)
}

// minTextTerms is the least number of in-vocabulary terms a generated
// text carries, so that no request takes core.Project's empty-bag
// return.
const minTextTerms = 4

// genTexts draws n task texts with pairwise distinct bags: each is a
// dataset task's tokens with 30 % of them resampled uniformly from the
// vocabulary. The same (dataset, seed, n) gives the same texts in the
// same order.
func genTexts(d *corpus.Dataset, seed int64, n int) ([]string, error) {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]struct{}, n)
	out := make([]string, 0, n)
	for attempts := 0; len(out) < n; attempts++ {
		if attempts > 20*n {
			return nil, fmt.Errorf("text pool: only %d distinct bags after %d draws", len(out), attempts)
		}
		src := d.Tasks[rng.Intn(len(d.Tasks))].Tokens
		toks := make([]string, len(src))
		for i, tok := range src {
			if rng.Float64() < 0.3 {
				tok = d.VocabTerms[rng.Intn(len(d.VocabTerms))]
			}
			toks[i] = tok
		}
		s := strings.Join(toks, " ")
		bag := text.NewBagKnown(d.Vocab, text.Tokenize(s))
		if int(bag.Total()) < minTextTerms {
			continue
		}
		key := bagKeyOf(bag)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		out = append(out, s)
	}
	return out, nil
}

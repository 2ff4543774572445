package crowdclient

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"crowdselect/internal/crowddb"
	"crowdselect/internal/rank"
	"crowdselect/internal/selcodec"
)

// maxPooledLeg is the largest body or answer, in bytes, a pooled
// scatter keeps: one huge selection is not kept for every later one.
const maxPooledLeg = 1 << 20

// leg is one shard's part of a fleet selection: the answer it read, that
// answer in flat form, the body of its text fallback, and whether the
// shard answered.
type leg struct {
	in   bytes.Buffer
	resp selcodec.Response
	text []byte
	ok   bool  // resp holds an answer checkLeg passed
	err  error // the shard's failure
}

// leg posts one of a Router's pre-encoded selections bodies through do,
// as every request goes — breaker, retry budget and tenant scope — and
// reads the answer into l.
func (c *Client) leg(ctx context.Context, body []byte, l *leg) error {
	if err := c.exchange(ctx, http.MethodPost, "/api/v1/selections", body, &l.in); err != nil {
		return err
	}
	return l.read()
}

// leg sends one leg as the read its route-table row makes it: any
// endpoint answers, and a failed one fails over as Multi.read does.
func (m *Multi) leg(ctx context.Context, body []byte, l *leg) error {
	return m.read(func(c *Client) error { return c.leg(ctx, body, l) })
}

// read puts the answer in l.in into l.resp: scanned in place when it is
// what selcodec.AppendResponse writes, and otherwise — escapes,
// non-ASCII, another server's shape — decoded by encoding/json and
// copied into the same flat form. The copy refuses, in checkLeg's words,
// the two shapes that form cannot hold: a result without one score per
// worker and category rows not all of one non-zero length. checkLeg
// judges the rest, whichever route read the answer.
func (l *leg) read() error {
	if l.resp.Scan(l.in.Bytes()) {
		return nil
	}
	var dec crowddb.SelectionsResponse
	if err := json.Unmarshal(l.in.Bytes(), &dec); err != nil {
		return err
	}
	r := &l.resp
	r.Reset()
	for t, res := range dec.Results {
		if len(res.Scores) != len(res.Workers) {
			return fmt.Errorf("malformed response: task %d has %d scores for %d workers", t, len(res.Scores), len(res.Workers))
		}
		r.Workers, r.Scores = append(r.Workers, res.Workers...), append(r.Scores, res.Scores...)
		r.Ends = append(r.Ends, len(r.Workers))
	}
	for t, cat := range dec.Categories {
		if len(cat) == 0 || len(cat) != len(dec.Categories[0]) {
			return fmt.Errorf("malformed response: category %d has %d components, category 0 has %d", t, len(cat), len(dec.Categories[0]))
		}
		r.Cats, r.Dim = append(r.Cats, cat...), len(cat)
	}
	r.Model, r.Version = dec.Model, dec.CategoryVersion
	return nil
}

// checkLeg validates one shard's answer where it is received, so the
// merge can index it blindly: one result per task and, on the
// projecting leg, one category per task and a version.
func checkLeg(resp *selcodec.Response, tasks int, projecting bool) error {
	if len(resp.Ends) != tasks {
		return fmt.Errorf("malformed response: %d results for %d tasks", len(resp.Ends), tasks)
	}
	if !projecting {
		return nil
	}
	if rows := len(resp.Cats) / max(resp.Dim, 1); rows != tasks || resp.Version == "" {
		return fmt.Errorf("malformed response: %d categories for %d tasks, version %q", rows, tasks, resp.Version)
	}
	return nil
}

// scatter is the pooled working set of one fleet selection: its tasks'
// texts and ks, the two bodies every selection posts, one leg per shard
// and the merge's items. Only the results merge allocates leave it.
type scatter struct {
	texts      []string
	ks         []int
	projecting []byte // the text leg that asks for categories
	scoreOnly  []byte // the categories leg every other shard gets
	legs       []leg
	items      []rank.Item
}

var scatterPool = sync.Pool{New: func() any { return new(scatter) }}

// newScatter takes a scatter from the pool for tasks over shards.
func newScatter(tasks []crowddb.SubmitRequest, shards int) *scatter {
	sc := scatterPool.Get().(*scatter)
	sc.texts, sc.ks = sc.texts[:0], sc.ks[:0]
	for _, t := range tasks {
		sc.texts, sc.ks = append(sc.texts, t.Text), append(sc.ks, t.K)
	}
	for len(sc.legs) < shards {
		sc.legs = append(sc.legs, leg{})
	}
	sc.legs = sc.legs[:shards]
	for i := range sc.legs {
		sc.legs[i].ok, sc.legs[i].err = false, nil
	}
	return sc
}

// release pools sc, unless one of its bodies or answers grew past
// maxPooledLeg. The caller's texts are not held either way.
func (sc *scatter) release() {
	clear(sc.texts)
	big := cap(sc.projecting) > maxPooledLeg || cap(sc.scoreOnly) > maxPooledLeg
	for i := range sc.legs {
		big = big || sc.legs[i].in.Cap() > maxPooledLeg || cap(sc.legs[i].text) > maxPooledLeg
	}
	if !big {
		scatterPool.Put(sc)
	}
}

// merge folds the legs that answered into one global top-k list per
// task, in request order: each task's items from every leg, gathered in
// sc.items and ranked there by rank.Merge. The results' Workers and
// Scores are windows of two arrays, the only memory that leaves sc.
func (sc *scatter) merge() []crowddb.SelectionResult {
	size := 0
	for t, k := range sc.ks {
		n := 0
		for i := range sc.legs {
			if l := &sc.legs[i]; l.ok {
				ids, _ := l.resp.Result(t)
				n += len(ids)
			}
		}
		size += min(k, n)
	}
	workers, scores := make([]int, size), make([]float64, size)
	results := make([]crowddb.SelectionResult, len(sc.ks))
	at := 0
	for t, k := range sc.ks {
		items := sc.items[:0]
		for i := range sc.legs {
			if l := &sc.legs[i]; l.ok {
				ids, ss := l.resp.Result(t)
				for j, id := range ids {
					items = append(items, rank.Item{ID: id, Score: ss[j]})
				}
			}
		}
		sc.items = items
		merged := rank.Merge(items, k)
		end := at + len(merged)
		res := crowddb.SelectionResult{Workers: workers[at:end:end], Scores: scores[at:end:end]}
		for j, it := range merged {
			res.Workers[j], res.Scores[j] = it.ID, it.Score
		}
		results[t], at = res, end
	}
	return results
}

package crowddb

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"crowdselect/internal/rank"
	"crowdselect/internal/selcodec"
	"crowdselect/internal/text"
)

// TestWriteJSONRefusesUnencodableValue: a value encoding/json refuses is
// a 500 with the error envelope. The status used to be committed before
// the encoding failed, which answered 200 with an empty body.
func TestWriteJSONRefusesUnencodableValue(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"score": math.Inf(1)})
	var env ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != http.StatusInternalServerError {
		t.Fatalf("writeJSON of +Inf = %d %q (%v), want 500 and the envelope", rec.Code, rec.Body, err)
	}
	if env.Error.Code != "internal" || !strings.Contains(env.Error.Message, "+Inf") {
		t.Errorf("envelope = %+v, want code internal naming +Inf", env.Error)
	}
}

// nanSelector scores every candidate NaN.
type nanSelector struct{ staticSelector }

func (nanSelector) RankBatchScored(_ context.Context, a *rank.Arena, bags []text.Bag, candidates []int, k int) ([][]rank.Item, error) {
	out := byID(a, len(bags), candidates, k)
	for _, items := range out {
		for i := range items {
			items[i].Score = math.NaN()
		}
	}
	return out, nil
}

// TestSelectionsRefuseNonFiniteScores: a selection whose scores are not
// finite answers 500 with the envelope when it must carry them, as a
// Router's client then reports a shard error instead of "unexpected end
// of JSON input", and answers its ids when it need not.
func TestSelectionsRefuseNonFiniteScores(t *testing.T) {
	store := NewStore()
	if _, err := store.AddWorker(0, "w"); err != nil {
		t.Fatal(err)
	}
	mgr, err := NewManager(store, text.NewVocabulary(), nanSelector{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(mgr)
	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/selections", strings.NewReader(body)))
		return rec
	}
	rec := post(`{"tasks":[{"text":"a task","k":1}],"include_scores":true}`)
	var env ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != http.StatusInternalServerError ||
		env.Error.Code != "internal" || !strings.Contains(env.Error.Message, "NaN") {
		t.Errorf("scored selection of NaN scores = %d %q, want 500, code internal, naming NaN", rec.Code, rec.Body)
	}
	if rec := post(`{"tasks":[{"text":"a task","k":1}]}`); rec.Code != http.StatusOK || rec.Body.String() != `{"results":[{"workers":[0]}],"model":"static"}`+"\n" {
		t.Errorf("ids-only selection = %d %q", rec.Code, rec.Body)
	}
}

// FuzzScoreOnlyLegMatchesUnmarshal holds the score-only leg's scanner
// to encoding/json: whatever body it accepts, json.Unmarshal into
// BatchSubmitRequest accepts too, with the same ks, the same category
// bits and the same version, and every other field zero. And the
// scanner is not idle: whenever a body decodes to a leg a router could
// have sent, the router's own encoding of it is scanned.
func FuzzScoreOnlyLegMatchesUnmarshal(f *testing.F) {
	for _, seed := range []string{
		`{"tasks":[{"text":"","k":10},{"text":"","k":3}],"categories":[[0.5,-0.25,1e-7],[1e21,-0,5e-324]],"category_version":"0123abcd"}`,
		`{"tasks":[{"text":"","k":1}],"categories":[[1]],"category_version":"v"}`,
		`{"tasks":[{"text":"","k":0}],"categories":[[0]],"category_version":""}`,
		`{"tasks": [{"text":"","k":1}],"categories":[[1]],"category_version":"v"}`,
		`{"tasks":[{"text":"","k":1}],"categories":[[1]],"category_version":"v"}` + "\n",
		`{"categories":[[1]],"tasks":[{"text":"","k":1}],"category_version":"v"}`,
		`{"TASKS":[{"text":"","k":1}],"categories":[[1]],"category_version":"v"}`,
		`{"tasks":[{"text":"","k":1}],"categories":[[1]],"categories":[[2]],"category_version":"v"}`,
		`{"tasks":[{"text":"","k":1,"k":2}],"categories":[[1]],"category_version":"v"}`,
		`{"tasks":[{"text":"","k":1}],"categories":[[-0]],"category_version":"v"}`,
		`{"tasks":[{"text":"","k":1}],"categories":[[1e999]],"category_version":"v"}`,
		`{"tasks":[{"text":"","k":1}],"categories":[[1e-400]],"category_version":"v"}`,
		`{"tasks":[{"text":"","k":1}],"categories":[[01]],"category_version":"v"}`,
		`{"tasks":[{"text":"","k":1}],"categories":[[1.]],"category_version":"v"}`,
		`{"tasks":[{"text":"","k":1}],"categories":[[.5]],"category_version":"v"}`,
		`{"tasks":[{"text":"","k":01}],"categories":[[1]],"category_version":"v"}`,
		`{"tasks":[{"text":"","k":-1}],"categories":[[1]],"category_version":"v"}`,
		`{"tasks":[{"text":"","k":1}],"categories":[[1]],"category_version":"v\u0041"}`,
		`{"tasks":[{"text":"","k":1}],"categories":[[1]],"category_version":"v\u00e9"}`,
		"{\"tasks\":[{\"text\":\"\",\"k\":1}],\"categories\":[[1]],\"category_version\":\"v\xff\"}",
		`{"tasks":[{"text":"","k":1},{"text":"","k":1}],"categories":[[1,2],[3]],"category_version":"v"}`,
		`{"tasks":[{"text":"","k":1}],"categories":[null],"category_version":"v"}`,
		`{"tasks":[{"text":"","k":1}],"categories":null,"category_version":"v"}`,
		`{"tasks":[{"text":"","k":1}],"categories":[[]],"category_version":"v"}`,
		`{"tasks":[{"text":"","k":1}],"categories":[[1]],"category_version":"v"}x`,
		`{"tasks":[{"text":"","k":1}],"categories":[[1]],"category_version":"v"}{}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var leg selcodec.Leg
		if leg.Scan(body) {
			var req BatchSubmitRequest
			if err := json.Unmarshal(body, &req); err != nil {
				t.Fatalf("scanned %q, which json.Unmarshal refuses: %v", body, err)
			}
			checkLeg(t, body, &leg, req)
		}
		var req BatchSubmitRequest
		if json.Unmarshal(body, &req) != nil || !routerShaped(req) {
			return
		}
		canon, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if !leg.Scan(canon) {
			t.Fatalf("a router's leg %q was not scanned", canon)
		}
		checkLeg(t, canon, &leg, req)
	})
}

// checkLeg holds a scanned leg to what json.Unmarshal decoded.
func checkLeg(t *testing.T, body []byte, leg *selcodec.Leg, req BatchSubmitRequest) {
	t.Helper()
	want := BatchSubmitRequest{Categories: req.Categories, CategoryVersion: leg.Version}
	for _, k := range leg.Ks {
		want.Tasks = append(want.Tasks, SubmitRequest{K: k})
	}
	if !reflect.DeepEqual(req.Tasks, want.Tasks) || req.IncludeScores || req.IncludeCategories || req.CategoryVersion != leg.Version {
		t.Fatalf("%q: scanned ks %v version %q, json.Unmarshal gave %+v", body, leg.Ks, leg.Version, req)
	}
	if len(leg.Cats) != len(req.Categories) {
		t.Fatalf("%q: scanned %d categories, json.Unmarshal %d", body, len(leg.Cats), len(req.Categories))
	}
	for i, row := range req.Categories {
		if !slices.EqualFunc(leg.Cats[i], row, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Fatalf("%q: category %d scanned %v, json.Unmarshal %v", body, i, leg.Cats[i], row)
		}
	}
}

// routerShaped reports a request a router's score-only leg could be:
// tasks with k only, no flags, rows of one non-zero length and a
// non-empty version json.Marshal writes unescaped.
func routerShaped(req BatchSubmitRequest) bool {
	if len(req.Tasks) == 0 || len(req.Categories) == 0 || req.CategoryVersion == "" || req.IncludeScores || req.IncludeCategories {
		return false
	}
	for _, t := range req.Tasks {
		if t.Text != "" || t.Workers != nil || t.K < 0 || t.K > 999999999 {
			return false
		}
	}
	for _, row := range req.Categories {
		if len(row) == 0 || len(row) != len(req.Categories[0]) {
			return false
		}
	}
	for _, c := range []byte(req.CategoryVersion) {
		if c < 0x20 || c >= 0x7f || strings.IndexByte(`"\<>&`, c) >= 0 {
			return false
		}
	}
	return true
}

// FuzzSelectionsResponseMatchesEncoder holds the one selections writer
// to the encoder it replaced: over arbitrary ids and score bits, with
// scores on and off, categories with nil and empty rows and any model
// and version strings, its bytes are json.NewEncoder's for the same
// SelectionsResponse, and it fails exactly when encoding/json does.
func FuzzSelectionsResponseMatchesEncoder(f *testing.F) {
	f.Add([]byte{2, 3, 1, 0, 0x3f, 0xf0, 0, 0, 0, 0, 0, 0}, true, "TDPM", "0123abcd", uint8(2))
	f.Add([]byte{1, 0}, false, "static", "", uint8(0))
	f.Add([]byte{1, 1, 0, 7, 0x7f, 0xf8, 0, 0, 0, 0, 0, 1}, true, "<m&o>", "v\u2028\xff", uint8(1))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x3e, 0xb0, 0xc6, 0xf7, 0xa0, 0xb5, 0xed, 0x8d}, true, "", "x", uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, scores bool, model, version string, rows uint8) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		float := func() float64 {
			var bits uint64
			for range 8 {
				bits = bits<<8 | uint64(next())
			}
			return math.Float64frombits(bits)
		}
		ranked := make([][]rank.Item, next()%5)
		for i := range ranked {
			for range next() % 4 {
				id := int(int16(uint16(next())<<8 | uint16(next())))
				ranked[i] = append(ranked[i], rank.Item{ID: id, Score: float()})
			}
		}
		var cats [][]float64
		for range rows % 4 {
			var row []float64
			switch n := next() % 5; n {
			case 0: // a nil row
			case 1:
				row = []float64{}
			default:
				for range n - 1 {
					row = append(row, float())
				}
			}
			cats = append(cats, row)
		}
		resp := SelectionsResponse{Results: make([]SelectionResult, len(ranked)), Model: model, Categories: cats, CategoryVersion: version}
		for i, items := range ranked {
			resp.Results[i].Workers = rank.IDs(items)
			if scores {
				resp.Results[i].Scores = make([]float64, len(items))
				for j, it := range items {
					resp.Results[i].Scores[j] = it.Score
				}
			}
		}
		var want bytes.Buffer
		wantErr := json.NewEncoder(&want).Encode(resp)
		got, err := selcodec.AppendResponse([]byte("kept"), ranked, scores, model, cats, version)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%+v: writer error %v, encoder error %v", resp, err, wantErr)
		}
		if err == nil && string(got) != "kept"+want.String() {
			t.Fatalf("%+v:\nwriter  %q\nencoder %q", resp, got[4:], want.Bytes())
		}
	})
}

// TestSelectionsPoolIsNotShared is the aliasing oracle of the pooled
// selections scratch, the rank arenas and the ids copied out of them
// (run it under -race). Eight clients send, concurrently and in random
// order, every form of POST /api/v1/selections — ids only, with scores,
// the projecting leg, the score-only leg as a router writes it (scanned)
// and with whitespace (decoded) — and each response must equal, byte for
// byte, the one the node gave to that body alone. Beside them, crowds
// SubmitBatch assigned and rankings RankOnly and RankOnlyScored returned
// must not change while later selections reuse the pools.
func TestSelectionsPoolIsNotShared(t *testing.T) {
	mgr, d := managerFixture(t)
	srv := NewServer(mgr)
	serve := func(body []byte) (int, []byte) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/selections", bytes.NewReader(body)))
		return rec.Code, rec.Body.Bytes()
	}
	rng := rand.New(rand.NewSource(36))
	var bodies [][]byte
	var batches [][]TaskSubmission
	for b := 0; b < 6; b++ {
		var req BatchSubmitRequest
		var batch []TaskSubmission
		for j := 0; j < 1+b; j++ {
			task := d.Tasks[rng.Intn(len(d.Tasks))]
			sr := SubmitRequest{Text: strings.Join(task.Tokens, " "), K: 1 + rng.Intn(6)}
			req.Tasks = append(req.Tasks, sr)
			batch = append(batch, TaskSubmission{Text: sr.Text, K: sr.K})
		}
		batches = append(batches, batch)
		for _, flags := range [][2]bool{{false, false}, {true, false}, {true, true}} {
			req.IncludeScores, req.IncludeCategories = flags[0], flags[1]
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			bodies = append(bodies, body)
		}
		code, body := serve(bodies[len(bodies)-1])
		var projected SelectionsResponse
		if err := json.Unmarshal(body, &projected); err != nil || code != http.StatusOK {
			t.Fatalf("projecting leg = %d %q", code, body)
		}
		leg := BatchSubmitRequest{Categories: projected.Categories, CategoryVersion: projected.CategoryVersion}
		for _, task := range req.Tasks {
			leg.Tasks = append(leg.Tasks, SubmitRequest{K: task.K})
		}
		scanned, err := json.Marshal(leg)
		if err != nil {
			t.Fatal(err)
		}
		var scan selcodec.Leg
		if !scan.Scan(scanned) {
			t.Fatalf("the router's leg %q is not scanned", scanned)
		}
		indented, err := json.MarshalIndent(leg, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, scanned, indented)
	}
	want := make([][]byte, len(bodies))
	for i, body := range bodies {
		code, resp := serve(body)
		if code != http.StatusOK {
			t.Fatalf("%s = %d %s", body, code, resp)
		}
		want[i] = bytes.Clone(resp)
	}
	wantRanked := make([][][]rank.Item, len(batches))
	for i, batch := range batches {
		got, err := mgr.RankOnlyScored(context.Background(), batch)
		if err != nil {
			t.Fatal(err)
		}
		for _, items := range got {
			wantRanked[i] = append(wantRanked[i], slices.Clone(items))
		}
	}

	const clients, rounds = 8, 30
	type held struct {
		batch  int
		ids    [][]int
		scored [][]rank.Item
		subs   []Submission
	}
	helds := make([][]held, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for r := 0; r < rounds; r++ {
				for _, i := range rng.Perm(len(bodies)) {
					if code, resp := serve(bodies[i]); code != http.StatusOK || !bytes.Equal(resp, want[i]) {
						t.Errorf("client %d: %s answered %d %s, alone %s", c, bodies[i], code, resp, want[i])
						return
					}
				}
				b := rng.Intn(len(batches))
				h := held{batch: b}
				var err error
				if h.ids, err = mgr.RankOnly(context.Background(), batches[b]); err == nil {
					h.scored, err = mgr.RankOnlyScored(context.Background(), batches[b])
				}
				if err == nil && r%10 == 0 {
					h.subs, err = mgr.SubmitBatch(context.Background(), batches[b])
				}
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				helds[c] = append(helds[c], h)
			}
		}(c)
	}
	wg.Wait()
	for c, hs := range helds {
		for _, h := range hs {
			exp := wantRanked[h.batch]
			for j := range exp {
				ids := rank.IDs(exp[j])
				if !slices.Equal(h.ids[j], ids) || !sameItems(h.scored[j], exp[j]) {
					t.Fatalf("client %d batch %d task %d: held RankOnly %v / RankOnlyScored %v, want %v", c, h.batch, j, h.ids[j], h.scored[j], exp[j])
				}
				if h.subs == nil {
					continue
				}
				task, err := mgr.Store().GetTask(h.subs[j].Task.ID)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(h.subs[j].Workers, ids) || !slices.Equal(task.Assigned, ids) {
					t.Fatalf("client %d batch %d task %d: submitted crowd %v, stored %v, want %v", c, h.batch, j, h.subs[j].Workers, task.Assigned, ids)
				}
			}
		}
	}
}

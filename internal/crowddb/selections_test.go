package crowddb

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"crowdselect/internal/core"
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

func (nanSelector) RankBatchScored(_ context.Context, a *rank.Arena, bags []text.Bag, candidates core.Candidates, k int) ([][]rank.Item, error) {
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

// FuzzScoreOnlyLegMatchesUnmarshal runs the selections scanner's oracle
// (fuzzSelectionsRequest) from the score-only leg's corpus: a router's
// blank-text body with its categories and version, and its near misses.
func FuzzScoreOnlyLegMatchesUnmarshal(f *testing.F) {
	fuzzSelectionsRequest(f, []string{
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
	})
}

// FuzzSelectionsRequestMatchesUnmarshal runs the same oracle from the
// text requests' corpus: ids only, with scores, the projecting leg, and
// their near misses (escapes, non-ASCII, whitespace, false flags,
// unknown keys, blank texts, trailing bytes).
func FuzzSelectionsRequestMatchesUnmarshal(f *testing.F) {
	fuzzSelectionsRequest(f, []string{
		`{"tasks":[{"text":"b trees and hash indexes","k":10},{"text":"a","k":0}]}`,
		`{"tasks":[{"text":"b trees","k":3}],"include_scores":true}`,
		`{"tasks":[{"text":"b trees","k":3},{"text":"c# go","k":1}],"include_scores":true,"include_categories":true}`,
		`{"tasks":[{"text":"say \"b trees\"","k":3}]}`,
		`{"tasks":[{"text":"caf\u00e9 index","k":3}]}`,
		`{"tasks":[{"text":"café index","k":3}]}`,
		`{"tasks":[{"text":"a<b && c>d","k":3}]}`,
		`{"tasks":[{"text":"a\u003cb \u0026\u0026 c\u003ed","k":3}]}`,
		`{"tasks":[{"text":"b trees", "k":3}]}`,
		`{"tasks":[{"text":"b trees","k":3}],"include_scores":false}`,
		`{"tasks":[{"text":"b trees","k":3}],"include_categories":true}`,
		`{"tasks":[{"text":"b trees","k":3}],"include_scores":true,"include_categories":false}`,
		`{"tasks":[{"text":"b trees","k":3}],"model":"x"}`,
		`{"tasks":[{"text":"b trees","k":3,"workers":[1]}]}`,
		`{"tasks":[{"k":3,"text":"b trees"}]}`,
		`{"tasks":[{"text":"","k":3}]}`,
		`{"tasks":[{"text":"   ","k":3}],"include_scores":true}`,
		`{"tasks":[{"text":"b trees","k":3}]}x`,
		`{"tasks":[{"text":"b trees","k":3}],"include_scores":true}` + "\n",
		`{"tasks":[{"text":"b trees","k":1}],"categories":[[1]],"category_version":"v"}`,
		`{"tasks":[]}`,
		`{"tasks":null}`,
	})
}

// fuzzSelectionsRequest holds the selections scanner to encoding/json:
// whatever body it accepts, json.Unmarshal into BatchSubmitRequest
// accepts too, with the same ks, the same flags, the same category bits
// and version, each text equal to its window of the body and no
// workers. And the scanner is not idle: whenever a body decodes to a
// request a router or a client could have sent with plain texts — ids
// only, with scores, the projecting leg, the score-only leg — their own
// encoding of it is scanned.
func fuzzSelectionsRequest(f *testing.F, seeds []string) {
	for _, seed := range seeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var scan selcodec.Request
		if scan.Scan(body) {
			var req BatchSubmitRequest
			if err := json.Unmarshal(body, &req); err != nil {
				t.Fatalf("scanned %q, which json.Unmarshal refuses: %v", body, err)
			}
			checkScanned(t, body, &scan, req)
		}
		var req BatchSubmitRequest
		if json.Unmarshal(body, &req) != nil || !compactShaped(req) {
			return
		}
		canon, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if !scan.Scan(canon) {
			t.Fatalf("the compact body %q was not scanned", canon)
		}
		checkScanned(t, canon, &scan, req)
	})
}

// checkScanned holds a scanned request to what json.Unmarshal decoded.
func checkScanned(t *testing.T, body []byte, scan *selcodec.Request, req BatchSubmitRequest) {
	t.Helper()
	if len(scan.Ks) != len(req.Tasks) || len(scan.Texts) != len(req.Tasks) || scan.WorkersAt != -1 {
		t.Fatalf("%q: scanned %d ks, %d texts, workers at %d; json.Unmarshal gave %+v", body, len(scan.Ks), len(scan.Texts), scan.WorkersAt, req)
	}
	for i, task := range req.Tasks {
		if task.K != scan.Ks[i] || task.Text != string(scan.Texts[i]) || len(task.Workers) > 0 {
			t.Fatalf("%q: task %d scanned k %d text %q, json.Unmarshal gave %+v", body, i, scan.Ks[i], scan.Texts[i], task)
		}
	}
	if scan.IncludeScores != req.IncludeScores || scan.IncludeCategories != req.IncludeCategories ||
		scan.ByCategory != (req.Categories != nil || req.CategoryVersion != "") || scan.Version != req.CategoryVersion {
		t.Fatalf("%q: scanned flags %v %v, by category %v, version %q; json.Unmarshal gave %+v",
			body, scan.IncludeScores, scan.IncludeCategories, scan.ByCategory, scan.Version, req)
	}
	if len(scan.Cats) != len(req.Categories) {
		t.Fatalf("%q: scanned %d categories, json.Unmarshal %d", body, len(scan.Cats), len(req.Categories))
	}
	for i, row := range req.Categories {
		if !slices.EqualFunc(scan.Cats[i], row, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Fatalf("%q: category %d scanned %v, json.Unmarshal %v", body, i, scan.Cats[i], row)
		}
	}
}

// compactShaped reports a request whose json.Marshal encoding the
// scanner must read: tasks with k only and texts of plain ASCII that
// json.Marshal writes unescaped, and either the flags of a text request
// (none, include_scores, or both) or a score-only leg — blank texts, no
// flags, rows of one non-zero length and a non-empty plain version.
func compactShaped(req BatchSubmitRequest) bool {
	if len(req.Tasks) == 0 {
		return false
	}
	for _, t := range req.Tasks {
		if len(t.Workers) > 0 || t.K < 0 || t.K > 999999999 || !unescaped(t.Text) {
			return false
		}
	}
	if req.Categories == nil && req.CategoryVersion == "" {
		return req.IncludeScores || !req.IncludeCategories
	}
	if len(req.Categories) == 0 || req.CategoryVersion == "" || !unescaped(req.CategoryVersion) || req.IncludeScores || req.IncludeCategories {
		return false
	}
	for _, t := range req.Tasks {
		if t.Text != "" {
			return false
		}
	}
	for _, row := range req.Categories {
		if len(row) == 0 || len(row) != len(req.Categories[0]) {
			return false
		}
	}
	return true
}

// unescaped reports a string json.Marshal writes verbatim: printable
// ASCII but the quote, the backslash and the HTML-escaped <, > and &.
func unescaped(s string) bool {
	for _, c := range []byte(s) {
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

// FuzzRouterLegMatchesMarshal holds a router's leg writers to
// json.Marshal of the BatchSubmitRequest they stand for, byte for byte:
// the projecting leg and the text leg over any texts and any ks, and the
// score-only leg over any category bits, row shapes and version, failing
// exactly when json.Marshal does. texts are split at NUL bytes; data
// supplies the ks, the row count and length, and the components.
func FuzzRouterLegMatchesMarshal(f *testing.F) {
	float := func(x float64) []byte { return binary.BigEndian.AppendUint64(nil, math.Float64bits(x)) }
	seed := func(texts, version string, ks []uint64, rows, dim byte, xs ...float64) {
		var data []byte
		for _, k := range ks {
			data = binary.BigEndian.AppendUint64(data, k)
		}
		data = append(data, rows, dim)
		for _, x := range xs {
			data = append(data, float(x)...)
		}
		f.Add(texts, version, data)
	}
	seed("b trees and hash indexes\x00a", "0123abcd", []uint64{10, 3}, 2, 3, 0.5, -0.25, 1e-7, 1e21, math.Copysign(0, -1), 5e-324)
	seed("say \"b trees\"\x00c:\\tmp\x00tab\there", "v", []uint64{1, 2, 3}, 1, 1, 1)
	seed("a<b && c>d\x00café\x00\u2028\x00bad \xff utf-8\x00", "v\u00e9<>&", []uint64{0, 999999999, 1 << 40, math.MaxUint64, 7}, 3, 2, 123456789e300, -1e-310, 2.5e-8, 1e20, 0, 1)
	seed("", "", []uint64{5}, 0, 0)
	seed("nan\x00inf", "v", []uint64{1, 1}, 1, 2, math.NaN(), 1)
	seed("inf", "v", []uint64{1}, 1, 1, math.Inf(-1))
	f.Fuzz(func(t *testing.T, joined, version string, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		word := func() uint64 {
			var w uint64
			for range 8 {
				w = w<<8 | uint64(next())
			}
			return w
		}
		texts := strings.Split(joined, "\x00")
		ks := make([]int, len(texts))
		tasks, blank := make([]SubmitRequest, len(texts)), make([]SubmitRequest, len(texts))
		for i, text := range texts {
			ks[i] = int(word())
			tasks[i], blank[i] = SubmitRequest{Text: text, K: ks[i]}, SubmitRequest{K: ks[i]}
		}
		for _, cats := range []bool{false, true} {
			want, err := json.Marshal(BatchSubmitRequest{Tasks: tasks, IncludeScores: true, IncludeCategories: cats})
			if err != nil {
				t.Fatal(err)
			}
			if got := selcodec.AppendTextLeg([]byte("kept"), texts, ks, cats); string(got) != "kept"+string(want) {
				t.Fatalf("text leg (categories %v):\nwriter  %q\nmarshal %q", cats, got[4:], want)
			}
		}
		rows, dim := int(next()%4), 1+int(next()%4)
		var flat []float64
		var cats [][]float64
		for range rows {
			for range dim {
				flat = append(flat, math.Float64frombits(word()))
			}
			cats = append(cats, flat[len(flat)-dim:])
		}
		want, wantErr := json.Marshal(BatchSubmitRequest{Tasks: blank, Categories: cats, CategoryVersion: version})
		got, err := selcodec.AppendCategoryLeg([]byte("kept"), ks, flat, dim, version)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%v %q: writer error %v, marshal error %v", cats, version, err, wantErr)
		}
		if err == nil && string(got) != "kept"+string(want) {
			t.Fatalf("score-only leg:\nwriter  %q\nmarshal %q", got[4:], want)
		}
	})
}

// FuzzSelectionsResponseScanMatchesUnmarshal holds a router's response
// scanner to encoding/json: whatever body it accepts, json.Unmarshal
// into SelectionsResponse accepts too, with the same ids, the same score
// and category bits, the same model and version. And the scanner is not
// idle: whenever a body decodes to a response AppendResponse could
// write with scores, AppendResponse's bytes of it are scanned. The seeds
// are AppendResponse's four forms — ids only, which must be refused,
// with scores, the projecting leg's answer and the score-only leg's —
// and near misses.
func FuzzSelectionsResponseScanMatchesUnmarshal(f *testing.F) {
	ranked := [][]rank.Item{{{ID: 3, Score: 0.5}, {ID: 17, Score: -0.25}}, nil, {{ID: 0, Score: 1e21}, {ID: 999999999, Score: 5e-324}, {ID: 4, Score: math.Copysign(0, -1)}}}
	cats := [][]float64{{0.5, 1e-7}, {-3, 2}, {1e300, 0}}
	for _, form := range []struct {
		scores  bool
		cats    [][]float64
		version string
	}{{false, nil, ""}, {true, nil, ""}, {true, cats, "0123abcd"}, {true, nil, ""}} {
		body, err := selcodec.AppendResponse(nil, ranked, form.scores, "TDPM", form.cats, form.version)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, body := range []string{
		`{"results":[],"model":"m"}`,
		`{"results":[{"workers":[1],"scores":[1]}],"model":"m"}` + "\n",
		`{"results":[{"workers":[1],"scores":[1]}],"model":"m","category_version":"v"}`,
		`{"results":[{"workers":[1],"scores":[1]}],"model":"m","categories":[[1]]}`,
		`{"results":[{"workers":[],"scores":[]}],"model":"m"}`,
		`{"results":[{"workers":[1,2],"scores":[1]}],"model":"m"}`,
		`{"results":[{"workers":[1],"scores":[1,2]}],"model":"m"}`,
		`{"results":[{"workers":[-1],"scores":[1]}],"model":"m"}`,
		`{"results":[{"workers":[01],"scores":[1]}],"model":"m"}`,
		`{"results":[{"workers":[1000000000],"scores":[1]}],"model":"m"}`,
		`{"results":[{"workers":[1],"scores":[1e999]}],"model":"m"}`,
		`{"results":[{"workers":[1],"scores":[1e-400]}],"model":"m"}`,
		`{"results":[{"workers":[1],"scores":[1.]}],"model":"m"}`,
		`{"results":[{"workers":[1],"scores":[1]}],"model":"m","categories":[[1,2],[3]],"category_version":"v"}`,
		`{"results":[{"workers":[1],"scores":[1]}],"model":"m","categories":[null],"category_version":"v"}`,
		`{"results":[{"workers":[1],"scores":[1]}],"model":"m","categories":[[]],"category_version":"v"}`,
		`{"results":[{"workers":[1],"scores":[1]}],"model":"m\u0041"}`,
		`{"results":[{"workers":[1],"scores":[1]}],"model":"m\u003c"}`,
		"{\"results\":[{\"workers\":[1],\"scores\":[1]}],\"model\":\"m\xff\"}",
		`{"results":[{"workers":[1],"scores":[1]}],"model":"é"}`,
		`{"results": [{"workers":[1],"scores":[1]}],"model":"m"}`,
		`{"model":"m","results":[{"workers":[1],"scores":[1]}]}`,
		`{"results":[{"scores":[1],"workers":[1]}],"model":"m"}`,
		`{"results":[{"workers":[1],"scores":[1]}],"model":"m"}x`,
		`{"results":[{"workers":[1],"scores":[1]}],"model":"m"}` + "\n\n",
		`{"results":null,"model":"m"}`,
		`{"error":{"code":"category_mismatch","message":"core: category version mismatch"}}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var scan selcodec.Response
		if scan.Scan(body) {
			var resp SelectionsResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatalf("scanned %q, which json.Unmarshal refuses: %v", body, err)
			}
			checkScannedResponse(t, body, &scan, resp)
		}
		var resp SelectionsResponse
		if json.Unmarshal(body, &resp) != nil {
			return
		}
		ranked, ok := scoredShape(resp)
		if !ok {
			return
		}
		canon, err := selcodec.AppendResponse(nil, ranked, true, resp.Model, resp.Categories, resp.CategoryVersion)
		if err != nil {
			t.Fatal(err)
		}
		if !scan.Scan(canon) {
			t.Fatalf("AppendResponse's %q was not scanned", canon)
		}
		var again SelectionsResponse
		if err := json.Unmarshal(canon, &again); err != nil {
			t.Fatal(err)
		}
		checkScannedResponse(t, canon, &scan, again)
	})
}

// checkScannedResponse holds a scanned response to what json.Unmarshal
// decoded.
func checkScannedResponse(t *testing.T, body []byte, scan *selcodec.Response, resp SelectionsResponse) {
	t.Helper()
	same := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	if len(scan.Ends) != len(resp.Results) || scan.Model != resp.Model || scan.Version != resp.CategoryVersion {
		t.Fatalf("%q: scanned %d results, model %q, version %q; json.Unmarshal gave %+v", body, len(scan.Ends), scan.Model, scan.Version, resp)
	}
	for i, res := range resp.Results {
		ids, scores := scan.Result(i)
		if !slices.Equal(ids, res.Workers) || !same(scores, res.Scores) {
			t.Fatalf("%q: result %d scanned %v %v, json.Unmarshal %+v", body, i, ids, scores, res)
		}
	}
	if len(resp.Categories) == 0 {
		if len(scan.Cats) != 0 || scan.Dim != 0 {
			t.Fatalf("%q: scanned categories %v of %d, json.Unmarshal none", body, scan.Cats, scan.Dim)
		}
		return
	}
	if len(scan.Cats) != len(resp.Categories)*scan.Dim {
		t.Fatalf("%q: scanned %d components of %d, json.Unmarshal %d rows", body, len(scan.Cats), scan.Dim, len(resp.Categories))
	}
	for i, row := range resp.Categories {
		if got := scan.Cats[i*scan.Dim : (i+1)*scan.Dim]; !same(got, row) {
			t.Fatalf("%q: category %d scanned %v, json.Unmarshal %v", body, i, got, row)
		}
	}
}

// scoredShape reports a response AppendResponse writes with scores in
// a form Response.Scan must read, and its rankings: one score per
// worker, ids of at most nine digits, category rows of one non-zero
// length and a model and version json.Marshal writes unescaped.
func scoredShape(resp SelectionsResponse) ([][]rank.Item, bool) {
	if !unescaped(resp.Model) || !unescaped(resp.CategoryVersion) {
		return nil, false
	}
	for _, row := range resp.Categories {
		if len(row) == 0 || len(row) != len(resp.Categories[0]) {
			return nil, false
		}
	}
	ranked := make([][]rank.Item, len(resp.Results))
	for i, res := range resp.Results {
		if len(res.Scores) != len(res.Workers) {
			return nil, false
		}
		for j, id := range res.Workers {
			if id < 0 || id > 999999999 {
				return nil, false
			}
			ranked[i] = append(ranked[i], rank.Item{ID: id, Score: res.Scores[j]})
		}
	}
	return ranked, true
}

// TestSelectionsPoolIsNotShared is the aliasing oracle of the pooled
// selections scratch, the rank arenas and the ids copied out of them
// (run it under -race). Eight clients send, concurrently and in random
// order, every form of POST /api/v1/selections — ids only, with scores,
// the projecting leg and the score-only leg, each as a router writes it
// (scanned) and with whitespace (decoded) — and each response must
// equal, byte for byte, the one the node gave to that body alone, which
// equals the one it gave the body's twin by the other route. Beside
// them, crowds SubmitBatch assigned and rankings RankOnly and
// RankOnlyScored returned must not change while later selections reuse
// the pools.
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
	var twins []int // bodies[i] and bodies[i+1] are one request, scanned and decoded
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
			var scan selcodec.Request
			if !scan.Scan(body) {
				t.Fatalf("the compact body %q is not scanned", body)
			}
			indented, err := json.MarshalIndent(req, "", " ")
			if err != nil {
				t.Fatal(err)
			}
			twins = append(twins, len(bodies))
			bodies = append(bodies, indented, body)
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
		var scan selcodec.Request
		if !scan.Scan(scanned) {
			t.Fatalf("the router's leg %q is not scanned", scanned)
		}
		indented, err := json.MarshalIndent(leg, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		twins = append(twins, len(bodies))
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
	for _, i := range twins {
		if !bytes.Equal(want[i], want[i+1]) {
			t.Fatalf("one request answered %s decoded and %s scanned", want[i], want[i+1])
		}
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

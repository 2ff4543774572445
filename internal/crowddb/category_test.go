package crowddb

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"crowdselect/internal/core"
	"crowdselect/internal/race"
	"crowdselect/internal/rank"
)

// TestSelectionsByCategory drives the two fleet legs of POST
// /api/v1/selections on one node: the projecting leg returns what a
// scored selection returns plus categories and their version; the
// score-only leg, fed those, answers the same scored results without a
// projection-cache lookup; every malformed body is a 400, a foreign
// version the typed 409, and the node counts its legs by kind.
func TestSelectionsByCategory(t *testing.T) {
	ts, mgr := serverFixture(t)
	cm := mgr.sel.(*core.ConcurrentModel)
	url := ts.URL + "/api/v1/selections"
	tasks := []map[string]any{
		{"text": "how do b+ trees differ from b trees", "k": 4},
		{"text": "which database index fits range queries", "k": 2},
	}

	want := decode[SelectionsResponse](t, postJSON(t, url, map[string]any{"tasks": tasks, "include_scores": true}))
	projected := decode[SelectionsResponse](t, postJSON(t, url, map[string]any{"tasks": tasks, "include_scores": true, "include_categories": true}))
	if !reflect.DeepEqual(projected.Results, want.Results) {
		t.Fatalf("projecting leg ranked %+v, scored selection %+v", projected.Results, want.Results)
	}
	_, _, served, err := cm.RankBatchProjected(context.Background(), new(rank.Arena), nil, nil, core.Candidates{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(projected.Categories) != 2 || len(projected.Categories[0]) != cm.Unwrap().K || projected.CategoryVersion != served {
		t.Fatalf("projecting leg returned categories %v at version %q", projected.Categories, projected.CategoryVersion)
	}
	if want.Categories != nil || want.CategoryVersion != "" {
		t.Errorf("a scored selection that did not ask carries categories: %+v", want)
	}

	body := func(tasks string, categories any, version string) string {
		cats, ok := categories.(string)
		if !ok {
			b, err := json.Marshal(categories)
			if err != nil {
				t.Fatal(err)
			}
			cats = string(b)
		}
		return fmt.Sprintf(`{"tasks":%s,"categories":%s,"category_version":%q}`, tasks, cats, version)
	}
	const twoKs = `[{"k":4},{"k":2}]`
	version := projected.CategoryVersion

	before := cm.CacheStats()
	resp, err := http.Post(url, "application/json", strings.NewReader(body(twoKs, projected.Categories, version)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("score-only leg = %d", resp.StatusCode)
	}
	if got := decode[SelectionsResponse](t, resp); !reflect.DeepEqual(got.Results, want.Results) || got.Model != want.Model {
		t.Errorf("score-only leg ranked %+v, scored selection %+v", got, want)
	}
	if after := cm.CacheStats(); after != before {
		t.Errorf("score-only leg touched the projection cache: %+v → %+v", before, after)
	}

	k := cm.Unwrap().K
	row := func(v string) string { return "[" + strings.TrimSuffix(strings.Repeat(v+",", k), ",") + "]" }
	refusals := []struct {
		name, body string
		status     int
		code       string
	}{
		{"missing version", body(twoKs, projected.Categories, ""), 400, "bad_request"},
		{"version without categories", `{"tasks":` + twoKs + `,"category_version":"` + version + `"}`, 400, "bad_request"},
		{"fewer categories than tasks", body(twoKs, projected.Categories[:1], version), 400, "bad_request"},
		{"ragged", body(twoKs, "["+row("0.5")+",[0.5,0.25]]", version), 400, "bad_request"},
		{"wrong length", body(twoKs, "[[0.5],[0.25]]", version), 400, "bad_request"},
		{"1e999", body(twoKs, "["+row("1e999")+","+row("0")+"]", version), 400, "bad_request"},
		{"exponent past float64", body(twoKs, "["+row("-1e400")+","+row("0")+"]", version), 400, "bad_request"},
		{"null row", body(twoKs, "[null,"+row("0")+"]", version), 400, "bad_request"},
		{"categories beside texts", body(`[{"text":"b trees","k":4},{"k":2}]`, projected.Categories, version), 400, "bad_request"},
		{"categories beside workers", body(`[{"k":4,"workers":[1]},{"k":2}]`, projected.Categories, version), 400, "bad_request"},
		{"no tasks", body(`[]`, "[]", version), 400, "bad_request"},
		{"include_categories alone", `{"tasks":[{"text":"b trees","k":2}],"include_categories":true}`, 400, "bad_request"},
		{"foreign version", body(twoKs, projected.Categories, strings.Repeat("0", 64)), 409, "category_mismatch"},
	}
	for _, c := range refusals {
		resp, err := http.Post(url, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != c.status {
			t.Errorf("%s: status = %d, want %d", c.name, resp.StatusCode, c.status)
		}
		if env := decode[ErrorEnvelope](t, resp); env.Error.Code != c.code || env.Error.Message == "" {
			t.Errorf("%s: envelope = %+v, want code %q", c.name, env.Error, c.code)
		}
	}

	// The extreme finite exponents are valid categories, not decoder
	// errors. The smallest scores finitely; the largest overflows the
	// scores to +Inf, which encoding/json refuses, so the answer is the
	// 500 envelope — not a 200 whose body the encoder left empty.
	for _, c := range []struct {
		x      string
		status int
	}{{"5e-324", http.StatusOK}, {"1e308", http.StatusInternalServerError}} {
		resp, err = http.Post(url, "application/json", strings.NewReader(body(twoKs, "["+row(c.x)+","+row("-0")+"]", version)))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != c.status {
			t.Errorf("categories of %s = %d, want %d", c.x, resp.StatusCode, c.status)
		}
		if c.status == http.StatusOK {
			if got := decode[SelectionsResponse](t, resp); len(got.Results) != 2 || len(got.Results[1].Scores) != 2 {
				t.Errorf("categories of %s answered %+v", c.x, got)
			}
		} else if env := decode[ErrorEnvelope](t, resp); env.Error.Code != "internal" || !strings.Contains(env.Error.Message, "+Inf") {
			t.Errorf("categories of %s: envelope = %+v, want code internal naming +Inf", c.x, env.Error)
		}
	}

	mresp, err := http.Get(ts.URL + "/api/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	legs := decode[MetricsSnapshot](t, mresp).SelectionLegs
	if legs == nil || *legs != (SelectionLegsSnapshot{Projected: 1, ScoredOnly: 3, CategoryMismatch: 1}) {
		t.Errorf("selection_legs = %+v, want 1 projected, 3 scored-only, 1 mismatch", legs)
	}
}

// TestMetricsOmitSelectionLegsOffFleet: a node no coordinator has sent
// a leg to reports no selection_legs section.
func TestMetricsOmitSelectionLegsOffFleet(t *testing.T) {
	ts, _ := serverFixture(t)
	postJSON(t, ts.URL+"/api/v1/selections", map[string]any{
		"tasks": []map[string]any{{"text": "b trees", "k": 2}}, "include_scores": true,
	}).Body.Close()
	resp, err := http.Get(ts.URL + "/api/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if snap := decode[MetricsSnapshot](t, resp); snap.SelectionLegs != nil {
		t.Errorf("selection_legs = %+v on a node that served none", snap.SelectionLegs)
	}
}

// selectionsHandlerAllocFence is what one POST /api/v1/selections of
// eight cached texts, k = 10, allocates through Server.ServeHTTP on a
// recorder: 131 on the commit before the fleet's category fields joined
// the request and response DTOs, 86 once bags and keys were built in
// pooled scratch, 81 once the body was decoded from a pooled buffer
// rather than by a json.Decoder that grows a read buffer per request,
// 64 once a cache hit was copied into pooled batch scratch rather than
// cloned (the cold twin is coldSelectionAllocFence), 44 since the
// rankings are cut from the request's pooled arena and the response is
// appended straight from them, with no response DTO and no reflection,
// 46 since every server is fenced and each response carries the two
// fencing gossip headers. The fence is 44 plus 4, which per-task
// rankings, id slices or the encoder coming back would cross.
const selectionsHandlerAllocFence = 48

// TestSelectionsHandlerAllocationFence keeps the fleet's DTO fields out
// of the single-node request: they ride at request and response level
// and are omitted when empty, so a selection that names no category
// allocates what it did before they existed. The eight texts are cache
// hits, which makes the count exact; the projection kernel has its own
// gates in internal/core.
func TestSelectionsHandlerAllocationFence(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not exact under -race; run `make allocs`")
	}
	mgr, d := managerFixture(t)
	srv := NewServer(mgr)
	var req BatchSubmitRequest
	for _, task := range d.Tasks[:8] {
		req.Tasks = append(req.Tasks, SubmitRequest{Text: strings.Join(task.Tokens, " "), K: 10})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	serve := func() {
		r := httptest.NewRequest(http.MethodPost, "/api/v1/selections", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, r)
		if rec.Code != http.StatusOK {
			t.Fatalf("selections = %d: %s", rec.Code, rec.Body)
		}
	}
	serve() // project the eight texts once
	allocs := testing.AllocsPerRun(50, serve)
	t.Logf("POST /api/v1/selections, 8 cached texts: %.1f allocations", allocs)
	if allocs > selectionsHandlerAllocFence {
		t.Errorf("%.1f allocations per single-node selection, want <= %d", allocs, selectionsHandlerAllocFence)
	}
}

// scoreOnlyLegAllocFence and scoreOnlyLegByteFence bound the score-only
// leg of a fleet selection (eight K-vectors and k = 10 in place of
// texts) through Server.ServeHTTP on a recorder: 105 allocations and
// 16.4 KB while the body went through a json.Decoder with a read buffer
// of its own, 100 and 14.2 KB decoded from a pooled buffer by
// json.Unmarshal, 23 and ≈ 8.4 KB once the leg was scanned into the
// request's pooled scratch, ranked into its arena and written from it,
// 25 and ≈ 8.4–8.5 KB since every server is fenced and each response
// carries the two fencing gossip headers — what is left is the
// recorder, the request, the middleware and those headers. The count
// fence is 23 plus 4; either fence fails a reflective decode or a
// response DTO.
const (
	scoreOnlyLegAllocFence = 27
	scoreOnlyLegByteFence  = 9 << 10
)

// TestScoreOnlyLegAllocationFence is the allocation gate of the request
// every shard but the projecting one serves on fleet_cold: nothing per
// task — no decoded vector, no ranking, no response slice — and nothing
// per request in the body's decoding or the response's encoding that a
// pool could keep.
func TestScoreOnlyLegAllocationFence(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not exact under -race; run `make allocs`")
	}
	mgr, d := managerFixture(t)
	srv := NewServer(mgr)
	post := func(body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/selections", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("selections = %d: %s", rec.Code, rec.Body)
		}
		return rec
	}
	projecting := BatchSubmitRequest{IncludeScores: true, IncludeCategories: true}
	for _, task := range d.Tasks[:8] {
		projecting.Tasks = append(projecting.Tasks, SubmitRequest{Text: strings.Join(task.Tokens, " "), K: 10})
	}
	body, err := json.Marshal(projecting)
	if err != nil {
		t.Fatal(err)
	}
	var projected SelectionsResponse
	if err := json.Unmarshal(post(body).Body.Bytes(), &projected); err != nil {
		t.Fatal(err)
	}
	leg := BatchSubmitRequest{Categories: projected.Categories, CategoryVersion: projected.CategoryVersion}
	for range projecting.Tasks {
		leg.Tasks = append(leg.Tasks, SubmitRequest{K: 10})
	}
	if body, err = json.Marshal(leg); err != nil {
		t.Fatal(err)
	}

	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() { post(body) })
	runtime.ReadMemStats(&after)
	bytesPerRun := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up once
	t.Logf("POST /api/v1/selections, score-only leg of 8 K=%d categories: %.1f allocations, %.0f bytes",
		len(leg.Categories[0]), allocs, bytesPerRun)
	if allocs > scoreOnlyLegAllocFence {
		t.Errorf("%.1f allocations per score-only leg, want <= %d", allocs, scoreOnlyLegAllocFence)
	}
	if bytesPerRun > scoreOnlyLegByteFence {
		t.Errorf("%.0f bytes per score-only leg, want <= %d", bytesPerRun, scoreOnlyLegByteFence)
	}
}

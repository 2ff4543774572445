package crowddb

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"crowdselect/internal/corpus"
)

// decodeJSONByDecoder is decodeJSON as it was before bodies were read
// into a pooled buffer: one json.Decoder straight over the body. It is
// the reference FuzzDecodeJSONMatchesDecoder holds decodeJSON to.
func decodeJSONByDecoder(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(r.Body).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		httpErrorCode(w, http.StatusRequestEntityTooLarge, codeRequestTooLarge,
			fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
		return false
	}
	httpError(w, http.StatusBadRequest, err)
	return false
}

// chunkedBody hands out at most n bytes per Read, as a socket does, and
// ends in err: io.EOF for a complete body, io.ErrUnexpectedEOF for one
// whose client went away before its Content-Length.
type chunkedBody struct {
	data []byte
	n    int
	err  error
}

func (b *chunkedBody) Read(p []byte) (int, error) {
	if len(b.data) == 0 {
		return 0, b.err
	}
	n := copy(p[:min(len(p), b.n)], b.data)
	b.data = b.data[n:]
	return n, nil
}

// cappedRequest is a POST of body as ServeHTTP hands it to a handler:
// behind http.MaxBytesReader at maxBody bytes.
func cappedRequest(w http.ResponseWriter, body []byte, maxBody int64, chunk int, torn bool) *http.Request {
	end := io.EOF
	if torn {
		end = io.ErrUnexpectedEOF
	}
	r := httptest.NewRequest(http.MethodPost, "/api/v1/selections", nil)
	r.Body = http.MaxBytesReader(w, io.NopCloser(&chunkedBody{data: body, n: chunk, err: end}), maxBody)
	return r
}

// FuzzDecodeJSONMatchesDecoder holds decodeJSON's pooled buffer and
// single Unmarshal to the decoder it replaced: for any bytes, any small
// cap, any read size and either end of body, and for each body DTO, both
// accept or both refuse, with the same status and the same envelope
// bytes, and an accepted body decodes to the same value.
func FuzzDecodeJSONMatchesDecoder(f *testing.F) {
	add := func(body string, limit uint8, torn bool) { f.Add([]byte(body), limit, uint8(255), torn) }
	add(`{"tasks":[{"text":"how do b+ trees differ","k":2}],"include_scores":true}`, 255, false)
	add(`{}x`, 255, false)
	add(`{}{}`, 255, false)
	add(``, 255, false)
	add(" \t\r\n ", 255, false)
	add(`{"tasks":[{"text":"how do b+`, 255, false)
	add(`{"tasks":"not a list"}`, 255, false)
	add(`{"epoch":3,"history":"h"}`+strings.Repeat(" ", 64), 40, false)   // over the cap, value ends before it
	add(`{"history":"`+strings.Repeat("h", 64)+`","epoch":3}`, 40, false) // value crosses the cap
	add("\xef\xbb\xbf{}", 255, false)                                     // a byte-order mark
	add("null x", 3, false)                                               // a complete literal exactly at the cap
	add("null", 255, true)                                                // a complete literal, then the client left
	f.Add([]byte(`{"scores":{"7":0.5}, "history":"h", "epoch":1}`), uint8(255), uint8(1), false)
	srv := new(Server) // decodeJSON reads nothing of the node
	targets := []func() any{
		func() any { return new(BatchSubmitRequest) },
		func() any { return new(feedbackRequest) },
		func() any { return new(FenceRequest) },
	}
	f.Fuzz(func(t *testing.T, body []byte, limit, chunk uint8, torn bool) {
		maxBody, n := int64(limit)+1, int(chunk)+1
		for _, target := range targets {
			got, want := target(), target()
			gotRec, wantRec := httptest.NewRecorder(), httptest.NewRecorder()
			gotOK := srv.decodeJSON(gotRec, cappedRequest(gotRec, body, maxBody, n, torn), got)
			wantOK := decodeJSONByDecoder(wantRec, cappedRequest(wantRec, body, maxBody, n, torn), want)
			if gotOK != wantOK || gotRec.Code != wantRec.Code || !bytes.Equal(gotRec.Body.Bytes(), wantRec.Body.Bytes()) {
				t.Fatalf("%T of %q (cap %d, reads of %d, torn %v): decodeJSON = %v %d %q, decoder = %v %d %q",
					want, body, maxBody, n, torn, gotOK, gotRec.Code, gotRec.Body, wantOK, wantRec.Code, wantRec.Body)
			}
			if gotOK && !reflect.DeepEqual(got, want) {
				t.Fatalf("%T of %q: decodeJSON gave %+v, decoder %+v", want, body, got, want)
			}
		}
	})
}

// BenchmarkDecodeBody is decodeJSON alone on the selections bodies the
// repository benchmark sends, behind http.MaxBytesReader as ServeHTTP
// wraps them: one text (select_bigcrowd), eight never-seen texts
// (select_cold, and the projecting leg of fleet_cold), and the
// score-only leg of eight K = 10 category vectors.
func BenchmarkDecodeBody(b *testing.B) {
	p := corpus.Quora().Scaled(0.03)
	p.Seed = 11
	d := corpus.MustGenerate(p)
	rng := rand.New(rand.NewSource(4))
	text := func() string {
		toks := d.Tasks[rng.Intn(len(d.Tasks))].Tokens
		return strings.Join(toks, " ")
	}
	leg := BatchSubmitRequest{CategoryVersion: strings.Repeat("0123456789abcdef", 4)}
	for range 8 {
		row := make([]float64, 10)
		for c := range row {
			row[c] = rng.Float64()
		}
		leg.Tasks = append(leg.Tasks, SubmitRequest{K: 10})
		leg.Categories = append(leg.Categories, row)
	}
	var eight BatchSubmitRequest
	for range 8 {
		eight.Tasks = append(eight.Tasks, SubmitRequest{Text: text(), K: 10})
	}
	bodies := []struct {
		name string
		req  BatchSubmitRequest
	}{
		{"texts=1", BatchSubmitRequest{Tasks: []SubmitRequest{{Text: text(), K: 10}}}},
		{"texts=8", eight},
		{"categories=8", leg},
	}
	srv := new(Server) // decodeJSON reads nothing of the node
	for _, c := range bodies {
		body, err := json.Marshal(c.req)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			rec := httptest.NewRecorder()
			r := httptest.NewRequest(http.MethodPost, "/api/v1/selections", nil)
			rd := bytes.NewReader(body)
			rc := io.NopCloser(rd)
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rd.Reset(body)
				r.Body = http.MaxBytesReader(rec, rc, defaultMaxBody)
				var req BatchSubmitRequest
				if !srv.decodeJSON(rec, r, &req) {
					b.Fatalf("decode: %s", rec.Body)
				}
			}
		})
	}
}

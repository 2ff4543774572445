// Package selcodec is the hand codec of POST /api/v1/selections, the
// request every selection and every fleet leg sends, at both ends of the
// wire. The server's half: AppendResponse writes each selections
// response byte for byte as encoding/json would, straight from rankings
// held in a rank.Arena, and Request.Scan reads every compact body — a
// plain text request, the same with include_scores or with
// include_scores and include_categories, and the score-only leg — in
// place: texts as windows of the body, categories into one flat slice.
// A fleet router's half: AppendTextLeg and AppendCategoryLeg write its
// three legs byte for byte as json.Marshal would, and Response.Scan
// reads a scored answer into flat ids, scores and categories. None of
// them allocates once its caller's buffers have grown, and each scanner
// accepts only the compact shapes its writer produces of plain ASCII:
// every other body is left to encoding/json, so the wire is the one
// encoding/json defines.
package selcodec

import (
	"encoding/json"
	"math"
	"strconv"

	"crowdselect/internal/rank"
)

// AppendResponse appends to dst the bytes json.NewEncoder(w).Encode
// writes for the crowddb.SelectionsResponse whose result i holds the ids
// of ranked[i] and, when scores is set, their scores, and whose Model,
// Categories and CategoryVersion are model, cats and version. As there,
// an empty ranking is "workers":null with no scores, a nil row of cats
// is null, and empty cats and version are omitted. It fails where
// encoding/json fails, on a score or category component that is NaN or
// ±Inf, returning dst as far as it got.
func AppendResponse(dst []byte, ranked [][]rank.Item, scores bool, model string, cats [][]float64, version string) ([]byte, error) {
	var err error
	dst = append(dst, `{"results":[`...)
	for i, items := range ranked {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"workers":`...)
		if len(items) == 0 {
			dst = append(dst, "null}"...)
			continue
		}
		dst = append(dst, '[')
		for j, it := range items {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(it.ID), 10)
		}
		dst = append(dst, ']')
		if scores {
			dst = append(dst, `,"scores":[`...)
			for j, it := range items {
				if j > 0 {
					dst = append(dst, ',')
				}
				if dst, err = AppendFloat(dst, it.Score); err != nil {
					return dst, err
				}
			}
			dst = append(dst, ']')
		}
		dst = append(dst, '}')
	}
	dst = append(dst, `],"model":`...)
	dst = appendString(dst, model)
	if len(cats) > 0 {
		dst = append(dst, `,"categories":[`...)
		for i, row := range cats {
			if i > 0 {
				dst = append(dst, ',')
			}
			if row == nil {
				dst = append(dst, "null"...)
				continue
			}
			if dst, err = appendFloats(dst, row); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	if version != "" {
		dst = append(dst, `,"category_version":`...)
		dst = appendString(dst, version)
	}
	return append(dst, "}\n"...), nil
}

// AppendFloat appends f as encoding/json spells a float64: the shortest
// decimal that reads back to f's bits, in exponent form below 1e-6 and
// from 1e21 on, with a one-digit negative exponent written e-7, not
// e-07. NaN and ±Inf are encoding/json's UnsupportedValueError.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}

// appendFloats appends xs as a JSON array of numbers, failing as
// AppendFloat fails.
func appendFloats(dst []byte, xs []float64) ([]byte, error) {
	dst = append(dst, '[')
	for i, x := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = AppendFloat(dst, x); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

// AppendTextLeg appends the bytes json.Marshal writes for the
// crowddb.BatchSubmitRequest of a fleet router's text leg: task i's
// text and k are texts[i] and ks[i], include_scores is set and, on the
// projecting leg (categories), include_categories too. Texts that are
// not plain ASCII are escaped by encoding/json itself, as appendString
// does; no task names workers.
func AppendTextLeg(dst []byte, texts []string, ks []int, categories bool) []byte {
	dst = appendTasks(dst, texts, ks)
	dst = append(dst, `,"include_scores":true`...)
	if categories {
		dst = append(dst, `,"include_categories":true`...)
	}
	return append(dst, '}')
}

// AppendCategoryLeg appends the bytes json.Marshal writes for the
// crowddb.BatchSubmitRequest of a fleet router's score-only leg:
// len(ks) tasks with blank texts, their ks, the categories in cats —
// dim components each, one row after another, dim > 0 — and their
// version, each of the last two omitted when empty, as there. It fails
// where json.Marshal fails, on a component that is NaN or ±Inf.
func AppendCategoryLeg(dst []byte, ks []int, cats []float64, dim int, version string) ([]byte, error) {
	dst = appendTasks(dst, nil, ks)
	if len(cats) > 0 {
		dst = append(dst, `,"categories":[`...)
		for i := 0; i < len(cats); i += dim {
			if i > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = appendFloats(dst, cats[i:i+dim]); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	if version != "" {
		dst = append(dst, `,"category_version":`...)
		dst = appendString(dst, version)
	}
	return append(dst, '}'), nil
}

// appendTasks opens a request body with its tasks, {"text":T,"k":N}
// each, T from texts or blank when texts is nil.
func appendTasks(dst []byte, texts []string, ks []int) []byte {
	dst = append(dst, `{"tasks":[`...)
	for i, k := range ks {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"text":`...)
		if texts != nil {
			dst = appendString(dst, texts[i])
		} else {
			dst = append(dst, `""`...)
		}
		dst = append(dst, `,"k":`...)
		dst = strconv.AppendInt(dst, int64(k), 10)
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

// appendString appends s as a JSON string. Printable ASCII that neither
// JSON nor encoding/json's HTML-safe escaping touches is copied; any
// other string — model names and versions never are, nor the texts the
// tokenizer reads — goes through encoding/json itself, so its escaping
// rules are never restated here.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plain(s[i]) {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// plain reports a byte a JSON string carries verbatim under
// encoding/json's HTML-safe escaping.
func plain(c byte) bool {
	return c >= 0x20 && c < 0x7f && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// Request is a selections body as the server reads it, whichever
// route decoded it: each task's requested k and text, the two flags
// and, on the score-only leg of a fleet selection, one category vector
// per task and the version they were projected under. A Request is
// reused across bodies. After Scan, Texts are windows of the scanned
// body and Cats views into one flat slice the Request keeps: neither
// outlives the body nor the next Scan.
type Request struct {
	Ks                []int
	Texts             [][]byte
	IncludeScores     bool
	IncludeCategories bool
	// ByCategory marks the score-only leg: the body named categories or
	// a category version, which replace the texts.
	ByCategory bool
	Cats       [][]float64
	Version    string
	// WorkersAt is the index of the first task naming preassigned
	// workers, -1 if none; a scanned body names none.
	WorkersAt int

	flat        []float64
	lastVersion string // the version a pooled Request scanned last
}

// Scan reads body into r when it is exactly one of the compact forms a
// router's or a client's json.Marshal writes,
//
//	{"tasks":[{"text":"T","k":N},…]}
//	{"tasks":[{"text":"T","k":N},…],"include_scores":true}
//	{"tasks":[{"text":"T","k":N},…],"include_scores":true,"include_categories":true}
//	{"tasks":[{"text":"","k":N},…],"categories":[[x,…],…],"category_version":"v"}
//
// with each T and v printable ASCII with no escape — bytes that decode
// to themselves, so each window of Texts is byte for byte the string
// encoding/json would decode —, each k a plain non-negative integer of
// at most nine digits, each x a number in strict JSON grammar that
// strconv.ParseFloat — which encoding/json calls too — reads without a
// range error and every row of one non-zero length, and reports whether
// it did. r then holds what json.Unmarshal decodes from body into
// crowddb.BatchSubmitRequest, category bits included. On any other body
// it reports false and r's contents are unspecified: such a body —
// whitespace, other key orders or casing, duplicate or unknown keys,
// escapes, non-ASCII, false flags, null, ragged rows, numbers out of
// range, trailing bytes — is for encoding/json to decode or refuse.
func (r *Request) Scan(body []byte) bool {
	s := scanner{b: body}
	r.Ks, r.Texts, r.Cats, r.flat = r.Ks[:0], r.Texts[:0], r.Cats[:0], r.flat[:0]
	r.IncludeScores, r.IncludeCategories, r.ByCategory, r.Version, r.WorkersAt = false, false, false, "", -1
	if !s.lit(`{"tasks":[`) {
		return false
	}
	blank := true
	for more := true; more; {
		if !s.lit(`{"text":"`) {
			return false
		}
		text := s.plain()
		if !s.lit(`","k":`) {
			return false
		}
		k, ok := s.int()
		if !ok || !s.lit("}") {
			return false
		}
		r.Ks, r.Texts = append(r.Ks, k), append(r.Texts, text)
		blank = blank && len(text) == 0
		if more, ok = s.next(); !ok {
			return false
		}
	}
	switch {
	case s.lit(`,"include_scores":true`):
		r.IncludeScores = true
		r.IncludeCategories = s.lit(`,"include_categories":true`)
	case s.lit(`,"categories":[`):
		if !blank || !r.scanCategories(&s) {
			return false
		}
	}
	return s.lit("}") && s.i == len(s.b)
}

// scanCategories reads the score-only leg's rows and version, from the
// first row to the version's closing quote, into r.
func (r *Request) scanCategories(s *scanner) bool {
	var dim int
	var ok bool
	if r.flat, dim, ok = s.rows(r.flat); !ok || !s.lit(`,"category_version":"`) {
		return false
	}
	version := s.plain()
	if !s.lit(`"`) {
		return false
	}
	r.ByCategory, r.Version = true, reuse(&r.lastVersion, version)
	for i := 0; i < len(r.flat); i += dim {
		r.Cats = append(r.Cats, r.flat[i:i+dim:i+dim])
	}
	return true
}

// Response is a scored selections response as a fleet router reads it:
// every result's worker ids and their scores, one result after another,
// where each result ends, and, on the projecting leg, every task's
// category in one flat slice, Dim components each, with the model and
// the category version. A Response is reused across bodies, and all it
// holds is its own: nothing is a window of the body.
type Response struct {
	Workers []int
	Scores  []float64 // parallel to Workers
	Ends    []int     // result t is Workers[Ends[t-1]:Ends[t]], from 0 for t = 0
	Cats    []float64
	Dim     int // components per category, 0 when there are none
	Model   string
	Version string

	lastModel, lastVersion string // the strings a pooled Response scanned last
}

// Result returns result t's worker ids and their scores, best first.
func (r *Response) Result(t int) ([]int, []float64) {
	start := 0
	if t > 0 {
		start = r.Ends[t-1]
	}
	return r.Workers[start:r.Ends[t]], r.Scores[start:r.Ends[t]]
}

// Reset empties r for a body decoded some other way.
func (r *Response) Reset() {
	r.Workers, r.Scores, r.Ends, r.Cats = r.Workers[:0], r.Scores[:0], r.Ends[:0], r.Cats[:0]
	r.Dim, r.Model, r.Version = 0, "", ""
}

// Scan reads body into r when it is exactly what AppendResponse writes
// with scores,
//
//	{"results":[{"workers":[id,…],"scores":[x,…]},{"workers":null},…],"model":"m","categories":[[x,…],…],"category_version":"v"}
//
// with the categories and the version each optional, and the final
// newline too — each result an empty one or as many scores as ids, each
// id a plain non-negative integer of at most nine digits, each x a
// number in strict JSON grammar that strconv.ParseFloat reads without a
// range error, every category row of one non-zero length, and m and v
// printable ASCII with no escape. It reports whether it did; r then
// holds what json.Unmarshal decodes from body into
// crowddb.SelectionsResponse, score and category bits included. On any
// other body it reports false and r's contents are unspecified: such a
// body — another server's shape, an unscored result, whitespace,
// escapes, non-ASCII, null or ragged rows, numbers out of range,
// trailing bytes — is for encoding/json to decode or refuse.
func (r *Response) Scan(body []byte) bool {
	s := scanner{b: body}
	r.Reset()
	if !s.lit(`{"results":[`) {
		return false
	}
	for more := !s.lit("]"); more; {
		if !s.lit(`{"workers":`) {
			return false
		}
		if !s.lit("null") && !r.scanScored(&s) {
			return false
		}
		r.Ends = append(r.Ends, len(r.Workers))
		if !s.lit("}") {
			return false
		}
		var ok bool
		if more, ok = s.next(); !ok {
			return false
		}
	}
	if !s.lit(`,"model":"`) {
		return false
	}
	model := s.plain()
	if !s.lit(`"`) {
		return false
	}
	r.Model = reuse(&r.lastModel, model)
	if s.lit(`,"categories":[`) {
		var ok bool
		if r.Cats, r.Dim, ok = s.rows(r.Cats); !ok {
			return false
		}
	}
	if s.lit(`,"category_version":"`) {
		version := s.plain()
		if !s.lit(`"`) {
			return false
		}
		r.Version = reuse(&r.lastVersion, version)
	}
	if !s.lit("}") {
		return false
	}
	s.lit("\n")
	return s.i == len(s.b)
}

// scanScored reads a non-empty result's ids and scores, from the ids'
// opening bracket to the scores' closing one, into r.
func (r *Response) scanScored(s *scanner) bool {
	if !s.lit("[") {
		return false
	}
	for more := true; more; {
		id, ok := s.int()
		if !ok {
			return false
		}
		r.Workers = append(r.Workers, id)
		if more, ok = s.next(); !ok {
			return false
		}
	}
	if !s.lit(`,"scores":[`) {
		return false
	}
	for more := true; more; {
		x, ok := s.float()
		if !ok {
			return false
		}
		r.Scores = append(r.Scores, x)
		if more, ok = s.next(); !ok {
			return false
		}
	}
	return len(r.Scores) == len(r.Workers) // equal before this result too
}

// reuse returns b as a string: *last when that spells b, else a new
// string, kept in *last. A pooled reader that meets one model or version
// body after body pays for it once.
func reuse(last *string, b []byte) string {
	if string(b) != *last {
		*last = string(b)
	}
	return *last
}

// plainInString reports a byte a JSON string may carry unescaped that
// json.Unmarshal decodes to itself: printable ASCII but the quote and
// the backslash. A byte from 0x80 up is not, as invalid UTF-8 decodes
// to U+FFFD.
func plainInString(c byte) bool {
	return c >= 0x20 && c < 0x7f && c != '"' && c != '\\'
}

// scanner is a cursor over a body.
type scanner struct {
	b []byte
	i int
}

// plain consumes the bytes of a string for which plainInString holds
// and returns them, a window of the body that appending cannot write
// through.
func (s *scanner) plain() []byte {
	start := s.i
	for s.i < len(s.b) && plainInString(s.b[s.i]) {
		s.i++
	}
	return s.b[start:s.i:s.i]
}

// lit consumes lit if the body continues with it.
func (s *scanner) lit(lit string) bool {
	if len(s.b)-s.i < len(lit) || string(s.b[s.i:s.i+len(lit)]) != lit {
		return false
	}
	s.i += len(lit)
	return true
}

// next consumes the separator after an array element: more is true
// after a ',' and false after the closing ']'; ok is false on any other
// byte.
func (s *scanner) next() (more, ok bool) {
	if s.lit(",") {
		return true, true
	}
	return false, s.lit("]")
}

// digits consumes a run of decimal digits and reports its length.
func (s *scanner) digits() int {
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i - start
}

// rows consumes category rows of one non-zero length, from the first
// row's bracket to the bracket that closes their array, appending every
// component to flat; dim is the rows' length.
func (s *scanner) rows(flat []float64) (_ []float64, dim int, ok bool) {
	for more := true; more; {
		if !s.lit("[") {
			return flat, 0, false
		}
		start := len(flat)
		for inRow := true; inRow; {
			var x float64
			if x, ok = s.float(); !ok {
				return flat, 0, false
			}
			flat = append(flat, x)
			if inRow, ok = s.next(); !ok {
				return flat, 0, false
			}
		}
		if n := len(flat) - start; dim == 0 {
			dim = n
		} else if n != dim {
			return flat, 0, false
		}
		if more, ok = s.next(); !ok {
			return flat, 0, false
		}
	}
	return flat, dim, true
}

// int consumes a JSON integer of one to nine digits, no sign and no
// leading zero — a value every int holds.
func (s *scanner) int() (int, bool) {
	start := s.i
	if n := s.digits(); n == 0 || n > 9 || (n > 1 && s.b[start] == '0') {
		return 0, false
	}
	k := 0
	for _, c := range s.b[start:s.i] {
		k = 10*k + int(c-'0')
	}
	return k, true
}

// float consumes a number in JSON's grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and parses it as
// encoding/json does; a number out of float64's range is refused.
func (s *scanner) float() (float64, bool) {
	start := s.i
	s.lit("-")
	if !s.lit("0") && s.digits() == 0 { // after a 0, a digit ends the number early: "01" fails at its 1
		return 0, false
	}
	if s.lit(".") && s.digits() == 0 {
		return 0, false
	}
	if s.lit("e") || s.lit("E") {
		if !s.lit("+") {
			s.lit("-")
		}
		if s.digits() == 0 {
			return 0, false
		}
	}
	x, err := strconv.ParseFloat(string(s.b[start:s.i]), 64)
	return x, err == nil
}

// Command expdiff compares two experiments_run.txt files (`make
// experiments`) and judges the difference by the rule EXPERIMENTS.md Note 4
// sets for a change that bumps core.KernelVersion:
//
//   - every TDPM ACCU / Top1 / Top2 cell within ± 0.02 of the old file;
//   - no platform's mean TDPM ACCU (one precision table each) lower by more
//     than 0.005;
//   - every VSM / TSPM / DRM cell, and every other row that is not TDPM's,
//     identical.
//
// Cells that are durations (the F4 / F6 / F8 timings are the host's) and the
// indented bar-chart lines are ignored. It prints, per section, the cells
// that moved with their Δ, then the verdict; the exit status is 0 when the
// rule holds, 1 when it does not, 2 when a file cannot be read or the two
// do not have the same tables. Run it via `make expdiff`, which compares
// HEAD's file with the working copy's. The nine shape checks of
// EXPERIMENTS.md are not judged here (ROADMAP item 1).
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"time"
)

const (
	cellBound = 0.02  // a TDPM ACCU / Top1 / Top2 cell may move this far
	meanBound = 0.005 // a platform's mean TDPM ACCU may fall this far
	modelRow  = "TDPM"
)

var (
	accuCol   = regexp.MustCompile(`/K\d+$`)
	recallCol = regexp.MustCompile(`/Top[12]$`)
)

// A section is one `=== KEY — title ===` block: its rows in file order, each
// a label and its cells. The first row is the column header when no cell of
// it is a value.
type section struct {
	key  string
	rows []row
}

type row struct {
	label string
	cells []string
}

func parse(r io.Reader) ([]section, error) {
	var out []section
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "=== "):
			fields := strings.Fields(line)
			out = append(out, section{key: fields[1]})
		case line == "" || line[0] == ' ' || line[0] == '\t':
			// blank, or a bar of a chart
		case len(out) == 0:
			return nil, fmt.Errorf("line %q before the first === section ===", line)
		default:
			fields := strings.Fields(line)
			s := &out[len(out)-1]
			s.rows = append(s.rows, row{label: fields[0], cells: fields[1:]})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no === section === found")
	}
	return out, nil
}

// A cell is one field of a row: the column name it may carry itself
// (regret=0.640), its text, and what the text is.
type cell struct {
	name, text string
	num        float64
	isNum      bool
	isDuration bool
}

func parseCell(field string) cell {
	c := cell{text: field}
	if i := strings.IndexByte(field, '='); i > 0 {
		c.name, c.text = field[:i], field[i+1:]
	}
	if _, err := time.ParseDuration(c.text); err == nil && c.text != "0" {
		c.isDuration = true
		return c
	}
	num, err := strconv.ParseFloat(c.text, 64)
	c.num, c.isNum = num, err == nil
	return c
}

// split returns the section's column names (nil when its first row is
// already data, as in SIM) and its data rows.
func (s section) split() (cols []string, data []row) {
	if len(s.rows) == 0 {
		return nil, nil
	}
	for _, field := range s.rows[0].cells {
		if c := parseCell(field); c.name != "" || c.isNum || c.isDuration {
			return nil, s.rows
		}
	}
	return s.rows[0].cells, s.rows[1:]
}

// compare writes the report to w and returns the violations of the rule; err
// is non-nil when the two files do not hold the same tables.
func compare(w io.Writer, old, new []section) (violations []string, err error) {
	if len(old) != len(new) {
		return nil, fmt.Errorf("%d sections against %d", len(old), len(new))
	}
	for i, so := range old {
		sn := new[i]
		if so.key != sn.key {
			return nil, fmt.Errorf("section %d is %s in one file and %s in the other", i+1, so.key, sn.key)
		}
		cols, rowsOld := so.split()
		colsNew, rowsNew := sn.split()
		if strings.Join(cols, " ") != strings.Join(colsNew, " ") || len(rowsOld) != len(rowsNew) {
			return nil, fmt.Errorf("%s: the two files do not have the same columns and rows", so.key)
		}
		var moved []string
		var sumOld, sumNew float64
		var accuCells int
		for r, ro := range rowsOld {
			rn := rowsNew[r]
			if ro.label != rn.label || len(ro.cells) != len(rn.cells) {
				return nil, fmt.Errorf("%s: row %d is %q in one file and %q in the other", so.key, r+1, ro.label, rn.label)
			}
			for c, field := range ro.cells {
				co, cn := parseCell(field), parseCell(rn.cells[c])
				name := co.name
				if name == "" && c < len(cols) {
					name = cols[c]
				}
				where := fmt.Sprintf("%s %s %s", so.key, ro.label, name)
				bounded := ro.label == modelRow && (accuCol.MatchString(name) || recallCol.MatchString(name))
				if co.isDuration && cn.isDuration {
					continue
				}
				if ro.label == modelRow && co.isNum && cn.isNum && accuCol.MatchString(name) {
					sumOld, sumNew, accuCells = sumOld+co.num, sumNew+cn.num, accuCells+1
				}
				if co.text == cn.text {
					continue
				}
				if !co.isNum || !cn.isNum {
					moved = append(moved, fmt.Sprintf("  %s: %s → %s", where, co.text, cn.text))
					violations = append(violations, fmt.Sprintf("%s: %s → %s", where, co.text, cn.text))
					continue
				}
				d := cn.num - co.num
				moved = append(moved, fmt.Sprintf("  %s: %s → %s (%+.3f)", where, co.text, cn.text, d))
				switch {
				case ro.label != modelRow:
					violations = append(violations, fmt.Sprintf("%s: %s → %s, and only %s rows may move", where, co.text, cn.text, modelRow))
				case bounded && math.Abs(d) > cellBound+1e-9:
					violations = append(violations, fmt.Sprintf("%s: %s → %s moves by more than %g", where, co.text, cn.text, cellBound))
				}
			}
		}
		if accuCells > 0 && sumOld != sumNew {
			mo, mn := sumOld/float64(accuCells), sumNew/float64(accuCells)
			moved = append(moved, fmt.Sprintf("  %s %s mean ACCU over %d cells: %.4f → %.4f (%+.4f)", so.key, modelRow, accuCells, mo, mn, mn-mo))
			if mn < mo-meanBound-1e-9 {
				violations = append(violations, fmt.Sprintf("%s: mean %s ACCU %.4f → %.4f falls by more than %g", so.key, modelRow, mo, mn, meanBound))
			}
		}
		if len(moved) > 0 {
			fmt.Fprintf(w, "=== %s ===\n%s\n", so.key, strings.Join(moved, "\n"))
		}
	}
	return violations, nil
}

// run is main without the process: the exit status for old and new.
func run(w io.Writer, oldText, newText []byte) int {
	old, err := parse(bytes.NewReader(oldText))
	if err != nil {
		fmt.Fprintln(w, "expdiff: old:", err)
		return 2
	}
	new, err := parse(bytes.NewReader(newText))
	if err != nil {
		fmt.Fprintln(w, "expdiff: new:", err)
		return 2
	}
	violations, err := compare(w, old, new)
	if err != nil {
		fmt.Fprintln(w, "expdiff:", err)
		return 2
	}
	if len(violations) == 0 {
		fmt.Fprintln(w, "ok: within EXPERIMENTS.md Note 4")
		return 0
	}
	fmt.Fprintf(w, "FAIL: %d violation(s) of EXPERIMENTS.md Note 4\n", len(violations))
	for _, v := range violations {
		fmt.Fprintln(w, "  "+v)
	}
	return 1
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: expdiff old-experiments_run.txt new-experiments_run.txt")
		os.Exit(2)
	}
	var texts [2][]byte
	for i, path := range os.Args[1:] {
		b, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "expdiff:", err)
			os.Exit(2)
		}
		texts[i] = b
	}
	os.Exit(run(os.Stdout, texts[0], texts[1]))
}

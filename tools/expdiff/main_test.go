package main

import (
	"bytes"
	"strings"
	"testing"
)

// base is experiments_run.txt in miniature: a statistics table, a timing
// table with its chart, one precision and one recall table, and SIM, whose
// rows name their own columns.
const base = `=== T2 — Table 2: Statistics of Real Datasets ===
Dataset        Questions Users
quora          1110      156

=== F4 — Figure 4: Running Time ===
Algorithm        Quora1       Quora2
VSM                 5µs          5µs
TDPM               92µs         89µs
mean selection time (µs, log scale)
  VSM  █████········· 5µs
  TDPM ██████████████ 99µs

=== T3 — Table 3: Precision ===
Algorithm  Quora1/K10 Quora1/K20 Quora5/K10 Quora5/K20
VSM             0.668      0.668      0.646      0.646
TDPM            0.830      0.851      0.823      0.843

=== T4 — Table 4: Recall ===
Algorithm  Quora1/Top1 Quora1/Top2
DRM              0.498       0.870
TDPM             0.744       0.964

=== SIM — Extension: closed-loop routing quality ===
VSM      tasks=500   best=3.458 picked=1.998 regret=3.418
TDPM     tasks=500   best=6.236 picked=4.768 regret=0.640
realized best-answer quality (crowd of 3)
  VSM    ███████████████··············· 3.46
`

func TestRun(t *testing.T) {
	edit := func(pairs ...string) string { return strings.NewReplacer(pairs...).Replace(base) }
	for _, c := range []struct {
		name string
		new  string
		exit int
		says []string // substrings of the report
	}{
		{"identical", base, 0, []string{"ok"}},
		{
			"what a kernel bump may move: TDPM cells within bounds, timings, bars, SIM's TDPM row",
			edit("0.830      0.851      0.823      0.843", "0.826      0.855      0.843      0.823", // ±0.02 exactly, mean unchanged
				"0.744       0.964", "0.739       0.965",
				"92µs         89µs", "61µs         58µs", "5µs          5µs", "4µs          6µs",
				"██████████████ 99µs", "█████████····· 60µs",
				"picked=4.768 regret=0.640", "picked=4.700 regret=0.700"),
			0,
			[]string{"T3 TDPM Quora1/K10: 0.830 → 0.826 (-0.004)", "T3 TDPM Quora5/K10: 0.823 → 0.843 (+0.020)", "T4 TDPM Quora1/Top1: 0.744 → 0.739 (-0.005)", "SIM TDPM regret: 0.640 → 0.700 (+0.060)", "ok"},
		},
		{
			"a TDPM precision cell moves by more than 0.02",
			edit("0.830      0.851", "0.830      0.872"), 1,
			[]string{"T3 TDPM Quora1/K20: 0.851 → 0.872 moves by more than 0.02"},
		},
		{
			"a TDPM recall cell moves by more than 0.02",
			edit("0.744       0.964", "0.744       0.943"), 1,
			[]string{"T4 TDPM Quora1/Top2: 0.964 → 0.943 moves by more than 0.02"},
		},
		{
			"a platform's mean ACCU falls by more than 0.005, no cell by more than 0.02",
			edit("0.830      0.851      0.823      0.843", "0.824      0.845      0.817      0.837"), 1,
			[]string{"T3: mean TDPM ACCU 0.8367 → 0.8307 falls by more than 0.005"},
		},
		{
			"a baseline cell moves",
			edit("0.668      0.668      0.646", "0.668      0.669      0.646"), 1,
			[]string{"T3 VSM Quora1/K20: 0.668 → 0.669, and only TDPM rows may move"},
		},
		{
			"a baseline's SIM cell and a statistic move",
			edit("picked=1.998", "picked=1.999", "1110      156", "1110      157"), 1,
			[]string{"SIM VSM picked: 1.998 → 1.999", "T2 quora Users: 156 → 157", "2 violation(s)"},
		},
		{"a row is missing", edit("DRM              0.498       0.870\n", ""), 2, []string{"T4"}},
		{"a section is missing", base[strings.Index(base, "=== F4"):], 2, []string{"sections"}},
		{"not an experiments file", "hello\n", 2, []string{"new"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			if got := run(&out, []byte(base), []byte(c.new)); got != c.exit {
				t.Errorf("exit status %d, want %d\n%s", got, c.exit, out.String())
			}
			for _, want := range c.says {
				if !strings.Contains(out.String(), want) {
					t.Errorf("the report does not say %q:\n%s", want, out.String())
				}
			}
		})
	}
}

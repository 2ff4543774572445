package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunRestoresWithoutRetraining drives both lifetimes: the restart
// boots the compacted generation with nothing left to replay, holds
// every task the first lifetime journaled, and keeps selecting.
func TestRunRestoresWithoutRetraining(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"first lifetime: resolved 6 tasks",
		"second lifetime: restored generation 2, replayed 0 journal records",
		" workers, 6 tasks\n",
		"post-restart selection for task 6: workers [",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

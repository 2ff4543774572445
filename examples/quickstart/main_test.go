package main

import (
	"bytes"
	"testing"
)

// TestRunIsDeterministic: the quick start prints the same bytes every
// time, so its output can be diffed. Building a task's responses by
// ranging over a map would reorder the training input from run to run.
func TestRunIsDeterministic(t *testing.T) {
	var first bytes.Buffer
	if err := run(&first); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		var again bytes.Buffer
		if err := run(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), again.Bytes()) {
			t.Fatalf("run %d printed\n%s\nthe first printed\n%s", i+2, again.Bytes(), first.Bytes())
		}
	}
}

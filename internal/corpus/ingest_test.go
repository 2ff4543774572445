package corpus

import (
	"strings"
	"testing"

	"crowdselect/internal/text"
)

func sampleRecords() []Record {
	return []Record{
		{TaskID: "q1", Text: "advantages of B+ tree over B tree", Worker: "alice", Score: 5},
		{TaskID: "q1", Worker: "bob", Score: 1},
		{TaskID: "q2", Text: "how to proof bread dough", Worker: "carol", Score: 4, Best: true},
		{TaskID: "q2", Worker: "alice", Score: 2},
		{TaskID: "q3", Text: "database index types", Worker: "alice", Score: 3},
	}
}

func TestFromRecords(t *testing.T) {
	d, workers, err := FromRecords("mydump", sampleRecords())
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Tasks) != 3 || len(d.Workers) != 3 {
		t.Fatalf("ingested %d tasks, %d workers", len(d.Tasks), len(d.Workers))
	}
	if d.Profile.Name != "mydump" {
		t.Errorf("name = %q", d.Profile.Name)
	}
	// Worker ids are first-seen order.
	if workers["alice"] != 0 || workers["bob"] != 1 || workers["carol"] != 2 {
		t.Errorf("worker ids = %v", workers)
	}
	// Task 1's best defaults to the top-scored answer (alice).
	best, ok := d.Tasks[0].BestWorker()
	if !ok || best != workers["alice"] {
		t.Errorf("q1 best = %d, %v", best, ok)
	}
	// Task 2 keeps the explicit best marker (carol).
	best, _ = d.Tasks[1].BestWorker()
	if best != workers["carol"] {
		t.Errorf("q2 best = %d", best)
	}
	// Text is tokenized and interned.
	if text.NewBagKnown(d.Vocab, []string{"tree"}).Len() == 0 {
		t.Error("vocabulary missing task terms")
	}
	if d.Workers[workers["alice"]].TaskCount != 3 {
		t.Errorf("alice TaskCount = %d", d.Workers[workers["alice"]].TaskCount)
	}
	// Bags work through the standard path.
	if bag := d.Tasks[0].Bag(d.Vocab); bag.Total() == 0 {
		t.Error("empty bag for ingested task")
	}
}

func TestFromRecordsValidation(t *testing.T) {
	cases := map[string][]Record{
		"empty":         {},
		"no task id":    {{Worker: "w", Score: 1}},
		"no worker":     {{TaskID: "t", Score: 1}},
		"bad score":     {{TaskID: "t", Worker: "w", Score: -1}},
		"double answer": {{TaskID: "t", Worker: "w", Score: 1}, {TaskID: "t", Worker: "w", Score: 2}},
		"two bests": {
			{TaskID: "t", Worker: "a", Score: 1, Best: true},
			{TaskID: "t", Worker: "b", Score: 2, Best: true},
		},
	}
	for name, recs := range cases {
		if _, _, err := FromRecords("x", recs); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestFromRecordsTrainsEndToEnd(t *testing.T) {
	// An ingested dataset must flow through the whole pipeline: here
	// just the conversion contract (training is exercised in eval).
	d, _, err := FromRecords("dump", sampleRecords())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	answered := 0
	for _, task := range d.Tasks {
		for _, r := range task.Responses {
			if r.Worker == 0 {
				answered++
			}
		}
	}
	if answered != 3 {
		t.Errorf("alice answered %d tasks, want 3", answered)
	}
}

func TestReadRecordsCSV(t *testing.T) {
	csvData := `task_id,text,worker,score,best
q1,"advantages of B+ tree",alice,5,
q1,,bob,1,
q2,"bread dough",carol,4,true
`
	recs, err := ReadRecordsCSV(strings.NewReader(csvData))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("parsed %d records", len(recs))
	}
	if recs[0].TaskID != "q1" || recs[0].Worker != "alice" || recs[0].Score != 5 || recs[0].Best {
		t.Errorf("rec 0 = %+v", recs[0])
	}
	if !recs[2].Best {
		t.Errorf("rec 2 = %+v", recs[2])
	}
	// Column order from header, best optional.
	reordered := "worker,score,task_id,text\nw,2,t,hello\n"
	recs, err = ReadRecordsCSV(strings.NewReader(reordered))
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Worker != "w" || recs[0].TaskID != "t" || recs[0].Text != "hello" {
		t.Errorf("reordered rec = %+v", recs[0])
	}
}

func TestReadRecordsCSVErrors(t *testing.T) {
	cases := map[string]string{
		"no header":      "",
		"missing column": "task_id,text\n",
		"bad score":      "task_id,text,worker,score\nq,t,w,abc\n",
		"bad best":       "task_id,text,worker,score,best\nq,t,w,1,maybe\n",
	}
	for name, payload := range cases {
		if _, err := ReadRecordsCSV(strings.NewReader(payload)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCSVToDatasetRoundTrip(t *testing.T) {
	csvData := `task_id,text,worker,score
q1,first question about trees,a,3
q1,,b,1
q2,second question about bread,b,5
q2,,a,2
`
	recs, err := ReadRecordsCSV(strings.NewReader(csvData))
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := FromRecords("csv", recs)
	if err != nil {
		t.Fatal(err)
	}
	if s := d.Stats(); s.Tasks != 2 || s.Answers != 4 || s.Workers != 2 {
		t.Errorf("stats = %+v", s)
	}
}

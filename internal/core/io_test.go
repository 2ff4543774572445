package core

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"crowdselect/internal/text"
)

func TestModelSaveLoadRoundTrip(t *testing.T) {
	d, m, _ := trainSmall(t, 5)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.K != m.K || got.V != m.V || got.M != m.M || got.Tau2 != m.Tau2 {
		t.Fatalf("dims changed: %d/%d/%d/%v", got.K, got.V, got.M, got.Tau2)
	}
	for i := 0; i < m.M; i++ {
		if !slices.Equal(got.LambdaW[i], m.LambdaW[i]) || !slices.Equal(got.NuW2[i], m.NuW2[i]) {
			t.Fatalf("worker %d posterior changed", i)
		}
	}
	// The reloaded model must select identically.
	bag := d.Tasks[0].Bag(d.Vocab)
	want := m.SelectForTask(bag, nil, 3, nil)
	have := got.SelectForTask(bag, nil, 3, nil)
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("selection changed after reload: %v vs %v", want, have)
		}
	}
}

func TestModelSaveLoadFile(t *testing.T) {
	_, m, _ := trainSmall(t, 4)
	path := filepath.Join(t.TempDir(), "model.json")
	saveFile(t, m, path)
	if _, err := LoadModelFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModelFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestLoadModelRejectsCorruption(t *testing.T) {
	cases := map[string]string{
		"not json":       "{nope",
		"bad dims":       `{"k":0,"v":5,"m":1}`,
		"missing worker": `{"k":2,"v":3,"m":2,"lambda_w":[[1,2]],"nu_w2":[[1,1]],"mu_w":[0,0],"sigma_w":[1,0,0,1],"mu_c":[0,0],"sigma_c":[1,0,0,1],"tau2":1,"log_beta":[0,0,0,0,0,0]}`,
		"bad tau":        `{"k":1,"v":1,"m":1,"lambda_w":[[1]],"nu_w2":[[1]],"mu_w":[0],"sigma_w":[1],"mu_c":[0],"sigma_c":[1],"tau2":0,"log_beta":[0]}`,
		"bad variance":   `{"k":1,"v":1,"m":1,"lambda_w":[[1]],"nu_w2":[[-1]],"mu_w":[0],"sigma_w":[1],"mu_c":[0],"sigma_c":[1],"tau2":1,"log_beta":[0]}`,
		"wrong shapes":   `{"k":2,"v":2,"m":1,"lambda_w":[[1,2]],"nu_w2":[[1,1]],"mu_w":[0],"sigma_w":[1],"mu_c":[0,0],"sigma_c":[1,0,0,1],"tau2":1,"log_beta":[0,0,0,0]}`,
		"worker dim":     `{"k":2,"v":1,"m":1,"lambda_w":[[1]],"nu_w2":[[1,1]],"mu_w":[0,0],"sigma_w":[1,0,0,1],"mu_c":[0,0],"sigma_c":[1,0,0,1],"tau2":1,"log_beta":[0,0]}`,
	}
	for name, payload := range cases {
		if _, err := LoadModel(strings.NewReader(payload)); err == nil {
			t.Errorf("%s: corruption accepted", name)
		}
	}
}

func TestLoadedModelProjects(t *testing.T) {
	d, m, _ := trainSmall(t, 4)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	bag := d.Tasks[1].Bag(d.Vocab)
	a := m.Project(bag).Mean()
	b := got.Project(bag).Mean()
	if a.Sub(b).NormInf() > 1e-9 {
		t.Errorf("projection changed after reload: %v vs %v", a, b)
	}
	_ = text.Bag{}
}

// saveFile writes m to path as Save writes it.
func saveFile(t *testing.T, m *Model, path string) {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

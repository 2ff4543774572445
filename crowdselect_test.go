package crowdselect_test

import (
	"bytes"
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"crowdselect"
	"crowdselect/internal/core"
	"crowdselect/internal/crowddb"
)

// facadeTasks builds a tiny two-category history through the public
// API only.
func facadeTasks(vocab *crowdselect.Vocabulary) []crowdselect.ResolvedTask {
	history := []struct {
		q      string
		scores map[int]float64
	}{
		{"advantages of B+ tree over B tree", map[int]float64{0: 5, 2: 1}},
		{"how does a database index work", map[int]float64{0: 4, 2: 2}},
		{"why use a B+ tree index in a database", map[int]float64{0: 5, 2: 1}},
		{"best flour for pizza dough", map[int]float64{1: 5, 2: 2}},
		{"how long to proof bread dough", map[int]float64{1: 4, 2: 1}},
		{"sourdough starter feeding schedule", map[int]float64{1: 5, 2: 2}},
	}
	var tasks []crowdselect.ResolvedTask
	for round := 0; round < 4; round++ {
		for _, h := range history {
			rt := crowdselect.ResolvedTask{Bag: crowdselect.NewBag(vocab, crowdselect.Tokenize(h.q))}
			for w, s := range h.scores {
				rt.Responses = append(rt.Responses, crowdselect.Scored{Worker: w, Score: s})
			}
			tasks = append(tasks, rt)
		}
	}
	return tasks
}

func TestFacadeTrainSelectRoundTrip(t *testing.T) {
	vocab := crowdselect.NewVocabulary()
	tasks := facadeTasks(vocab)
	model, stats, err := crowdselect.Train(tasks, 3, vocab.Size(), crowdselect.NewConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sweeps == 0 {
		t.Error("no sweeps recorded")
	}
	bag := crowdselect.NewBagKnown(vocab, crowdselect.Tokenize("advantages of a B+ tree index"))
	cat := model.Project(bag)
	top := model.SelectTopK(cat.Mean(), nil, 1)
	if len(top) != 1 || top[0] != 0 {
		t.Errorf("selected %v, want the database expert (0)", top)
	}

	// The trained model persists.
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.SelectTopK(cat.Mean(), nil, 1); got[0] != top[0] {
		t.Errorf("reloaded model selects %v, want %v", got, top)
	}
}

// TestFacadeCrowdPipeline: the model the quick start trains, wrapped for
// concurrent serving, is the selector a crowd manager serves.
func TestFacadeCrowdPipeline(t *testing.T) {
	vocab := crowdselect.NewVocabulary()
	tasks := facadeTasks(vocab)
	model, _, err := crowdselect.Train(tasks, 3, vocab.Size(), crowdselect.NewConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	store := crowddb.NewStore()
	for i := 0; i < 3; i++ {
		if _, err := store.AddWorker(i, fmt.Sprintf("w%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	mgr, err := crowddb.NewManager(store, vocab, core.NewConcurrentModel(model), 2)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := mgr.SubmitTask(context.Background(), "database index questions", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Workers) != 2 {
		t.Fatalf("selected %v", sub.Workers)
	}
	if err := mgr.CollectAnswer(sub.Task.ID, sub.Workers[0], "an answer"); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.ResolveTask(context.Background(), sub.Task.ID, map[int]float64{sub.Workers[0]: 5}); err != nil {
		t.Fatal(err)
	}
}

// TestRootPackageIsTheQuickStart holds the root package to README's
// quick start: every exported name it declares is spelled
// crowdselect.<Name> in README's Quick start block or in
// examples/quickstart, or is named in the signature of a name that is.
// Everything else is imported from the internal packages directly.
func TestRootPackageIsTheQuickStart(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(readme), "\n## Quick start\n")
	_, block, _ := strings.Cut(section, "```go\n")
	block, _, ok := strings.Cut(block, "\n```")
	if !ok {
		t.Fatal("README.md has no Go block under ## Quick start")
	}
	example, err := os.ReadFile(filepath.Join("examples", "quickstart", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	spelled := map[string]bool{}
	qualified := regexp.MustCompile(`\bcrowdselect\.([A-Z]\w*)`)
	for _, src := range []string{block, string(example)} {
		for _, m := range qualified.FindAllStringSubmatch(src, -1) {
			spelled[m[1]] = true
		}
	}

	// Every exported package-level name, with the identifiers of this
	// package its signature (a function's parameters and results, a
	// type's definition, a value's type) names.
	sigs := map[string][]string{}
	names := func(n ast.Node) []string {
		var out []string
		if n == nil { // a value declared without a type
			return nil
		}
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				return false // another package's name
			case *ast.Ident:
				out = append(out, n.Name)
			}
			return true
		})
		return out
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					sigs[d.Name.Name] = names(d.Type)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if sp.Name.IsExported() {
							sigs[sp.Name.Name] = names(sp.Type)
						}
					case *ast.ValueSpec:
						for _, id := range sp.Names {
							if id.IsExported() {
								sigs[id.Name] = names(sp.Type)
							}
						}
					}
				}
			}
		}
	}

	for name := range spelled {
		if _, ok := sigs[name]; !ok {
			t.Errorf("the quick start spells crowdselect.%s, which the root package does not declare", name)
		}
	}
	earned := map[string]bool{}
	var queue []string
	for name := range spelled {
		earned[name] = true
		queue = append(queue, name)
	}
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		for _, used := range sigs[name] {
			if _, declared := sigs[used]; declared && !earned[used] {
				earned[used] = true
				queue = append(queue, used)
			}
		}
	}
	var declared []string
	for name := range sigs {
		declared = append(declared, name)
	}
	sort.Strings(declared)
	for _, name := range declared {
		if !earned[name] {
			t.Errorf("crowdselect.%s is neither in README's quick start nor in a signature it uses; import its internal package instead", name)
		}
	}
}

// ExampleTrain demonstrates the README quick start end to end.
func ExampleTrain() {
	vocab := crowdselect.NewVocabulary()
	var tasks []crowdselect.ResolvedTask
	for i := 0; i < 8; i++ {
		tasks = append(tasks,
			crowdselect.ResolvedTask{
				Bag:       crowdselect.NewBag(vocab, crowdselect.Tokenize("btree index database query")),
				Responses: []crowdselect.Scored{{Worker: 0, Score: 5}, {Worker: 1, Score: 1}},
			},
			crowdselect.ResolvedTask{
				Bag:       crowdselect.NewBag(vocab, crowdselect.Tokenize("bread dough oven baking")),
				Responses: []crowdselect.Scored{{Worker: 0, Score: 1}, {Worker: 1, Score: 5}},
			})
	}
	model, _, err := crowdselect.Train(tasks, 2, vocab.Size(), crowdselect.NewConfig(2))
	if err != nil {
		panic(err)
	}
	bag := crowdselect.NewBagKnown(vocab, crowdselect.Tokenize("how to tune a database index"))
	cat := model.Project(bag)
	fmt.Println(model.SelectTopK(cat.Mean(), nil, 1))
	// Output: [0]
}

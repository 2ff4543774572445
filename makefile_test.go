package crowdselect_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMakefileRunPatternsNameTests: every alternative of a Makefile
// `-run '…'` pattern must match some Test, Fuzz or Benchmark function
// in the module. A target that re-selects drills by name otherwise
// keeps passing, silently, after the drill it names is renamed or
// deleted. `^$` (run no tests) is the one pattern exempt.
func TestMakefileRunPatternsNameTests(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	testFunc := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (path == "bench" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir // bench/ is a module of its own
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			names = append(names, string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	patterns := regexp.MustCompile(`-run '([^']*)'`).FindAllSubmatch(makefile, -1)
	if len(patterns) == 0 {
		t.Fatal("no -run patterns found in the Makefile")
	}
	for _, p := range patterns {
		pattern := strings.ReplaceAll(string(p[1]), "$$", "$") // make's escape
		if pattern == "^$" {
			continue
		}
		for _, alt := range strings.Split(pattern, "|") {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("Makefile -run alternative %q: %v", alt, err)
				continue
			}
			matched := false
			for _, name := range names {
				if re.MatchString(name) {
					matched = true
					break
				}
			}
			if !matched {
				t.Errorf("Makefile -run alternative %q matches no Test, Fuzz or Benchmark function", alt)
			}
		}
	}
}

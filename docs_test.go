package cosmos

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsCiteLiveBenchmarks: every Benchmark and Example function the docs,
// the verify skill and the CI workflows name exists — in a _test.go file or
// an analyzer fixture under testdata/ — so a retired benchmark or walkthrough
// cannot live on as a command nobody can run or a lane that matches nothing.
// A name must be cited whole: a prefix such as a -bench pattern matching
// several functions fails here too.
func TestDocsCiteLiveBenchmarks(t *testing.T) {
	defined := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func ((?:Benchmark|Example)[A-Z_]\w*)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return fs.SkipDir // .git, .bench_build
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") && !(strings.Contains(path, "testdata") && strings.HasSuffix(path, ".go")) {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllSubmatch(src, -1) {
			defined[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	docs := []string{"PERF.md", "README.md", "CONCURRENCY.md", "OPS.md", "LINT.md", ".claude/skills/verify/SKILL.md"}
	workflows, err := filepath.Glob(".github/workflows/*.yml")
	if err != nil {
		t.Fatal(err)
	}
	cited := regexp.MustCompile(`Benchmark[A-Z]\w*|Example[A-Z_]\w*`)
	for _, doc := range append(docs, workflows...) {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range cited.FindAllString(string(text), -1) {
			if !defined[name] {
				t.Errorf("%s names %s, which is not a benchmark or example function in this repository", doc, name)
			}
		}
	}
}

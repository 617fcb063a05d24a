package d3l_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	fuzzDecl  = regexp.MustCompile(`(?m)^func (Fuzz\w+)\(\w+ \*testing\.F\)`)
	fuzzSmoke = regexp.MustCompile(`^\s*go test -fuzz=(\w+)\s.*?\s(\./\S*)`)
)

// TestEveryFuzzTargetIsSmoked fails when a fuzz target of the module has
// no `go test -fuzz=<Name> … ./<its package>/` line in the "Fuzz smoke"
// step of .github/workflows/ci.yml: a target left off that list is never
// fuzzed in CI, and nothing else notices. It fails closed: a step it
// cannot find, or one that lists no targets, fails too.
func TestEveryFuzzTargetIsSmoked(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	smoked := map[string]bool{} // "name dir"
	step := -1                  // the indentation of the step's "- name:", -1 outside it
	for _, line := range strings.Split(string(ci), "\n") {
		indent := len(line) - len(strings.TrimLeft(line, " "))
		switch {
		case strings.TrimSpace(line) == "- name: Fuzz smoke":
			step = indent
		case step < 0 || strings.TrimSpace(line) == "":
		case indent <= step:
			step = -1
		default:
			if m := fuzzSmoke.FindStringSubmatch(line); m != nil {
				smoked[m[1]+" "+filepath.Clean(m[2])] = true
			}
		}
	}
	if len(smoked) == 0 {
		t.Fatal(`ci.yml has no "Fuzz smoke" step listing go test -fuzz lines`)
	}

	targets := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// benchmark/ is a module of its own; testdata and dot
			// directories hold no packages.
			if name := d.Name(); path != "." && (name == "benchmark" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range fuzzDecl.FindAllStringSubmatch(string(src), -1) {
			targets++
			if dir := filepath.Dir(path); !smoked[m[1]+" "+dir] {
				t.Errorf("%s (%s) has no `go test -fuzz=%s … ./%s/` line in ci.yml's Fuzz smoke step", m[1], path, m[1], filepath.ToSlash(dir))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if targets == 0 {
		t.Fatal("found no fuzz targets in the module")
	}
}

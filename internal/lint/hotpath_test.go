package lint

import (
	"os"
	"testing"

	"aos/internal/stats"
)

// TestHotRootsResolve: every built-in hot-path root must name a function
// its package declares. A root left behind by a rename would silently drop
// that package's per-instruction code from the hotpathalloc gate.
func TestHotRootsResolve(t *testing.T) {
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := FindModuleRoot(cwd)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, "./internal/...")
	if err != nil {
		t.Fatal(err)
	}
	byPath := map[string]*Package{}
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	for _, path := range stats.SortedKeys(hotRootFuncs) {
		p := byPath[path]
		if p == nil {
			t.Errorf("hot-path root package %s not found", path)
			continue
		}
		decls, _ := packageCallGraph(p)
		for _, name := range hotRootFuncs[path] {
			if decls[name] == nil {
				t.Errorf("hot-path root %s.%s is not declared", path, name)
			}
		}
	}
}

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

// TestHotPathReachesCacheWords: a cache level serves an access through
// functions generic over its word width (uint32 for the L2, uint64 for
// the L1s). The call graph from the hierarchy's roots must reach them, or
// hotpathalloc would stop checking the code that serves every L2 access.
func TestHotPathReachesCacheWords(t *testing.T) {
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := FindModuleRoot(cwd)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, "./internal/cache")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	decls, graph := packageCallGraph(pkgs[0])
	hot := hotFunctions(pkgs[0], decls, graph)
	for _, name := range []string{"Cache.Access", "Cache.locate", "access"} {
		if !hot[name] {
			t.Errorf("%s is not on the cache's hot path (reached: %v)", name, stats.SortedKeys(hot))
		}
	}
}

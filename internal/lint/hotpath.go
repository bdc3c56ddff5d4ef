package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"aos/internal/stats"
)

// hotRootFuncs are the per-package built-in hot-path roots: the timing
// core's per-instruction commit surface, plus the per-instruction callees
// it reaches in other packages (the call graph is intra-package, so each
// package names its own entry points). Keys are package import paths,
// values are "Receiver.Method" (or bare function) names. A function can
// also opt in anywhere with an `//aoslint:hotpath` doc-comment line.
var hotRootFuncs = map[string][]string{
	"aos/internal/cpu":   {"Core.Emit", "Core.EmitBatch"},
	"aos/internal/core":  {"Machine.emit", "Machine.emitScalar", "Machine.Flush"},
	"aos/internal/bpred": {"TAGE.Update"},
	"aos/internal/cache": {"Hierarchy.AccessData", "Hierarchy.AccessBounds", "Hierarchy.FetchInst"},
	"aos/internal/mcu":   {"BWB.Lookup", "BWB.Update"},
}

// HotPathAlloc flags allocation-prone constructs — make/new, append
// growth, closures, heap-escaping composites and address-taking,
// interface boxing — inside functions reachable (intra-package) from the
// hot-path roots. It is the static companion of the runtime
// zero-allocation guard (TestCoreEmitAllocsSteadyState): the runtime test
// proves the steady state clean for one workload, this analyzer pins
// every path of the commit closure. True positives that are provably
// amortized or cold carry an //aoslint:allow with the argument why.
var HotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc:  "no allocation-prone constructs in functions reachable from hot-path roots (cpu.Core/core.Machine commit, bpred.TAGE.Update, cache.Hierarchy accesses, mcu.BWB, //aoslint:hotpath)",
	Run: func(p *Pass) {
		decls, graph := packageCallGraph(p.Pkg)
		hot := hotFunctions(p.Pkg, decls, graph)
		// Deterministic report order: functions sorted by name.
		for _, name := range stats.SortedKeys(hot) {
			checkHotFunc(p, decls[name], name)
		}
	},
}

// funcKey names a declaration "Recv.Method" for methods (receiver base
// type name) or bare "Func" for functions.
func funcKey(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + d.Name.Name
	}
	return d.Name.Name
}

// packageCallGraph indexes the package's declarations and their
// intra-package call edges. Method calls resolve through the typechecker
// when the receiver type is known; otherwise they fall back to matching
// by method name alone — over-approximating reachability, which errs
// toward analyzing more functions, never fewer.
func packageCallGraph(pkg *Package) (map[string]*ast.FuncDecl, map[string][]string) {
	decls := map[string]*ast.FuncDecl{}
	methodsByName := map[string][]string{}
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			key := funcKey(fd)
			decls[key] = fd
			if fd.Recv != nil {
				methodsByName[fd.Name.Name] = append(methodsByName[fd.Name.Name], key)
			}
		}
	}
	graph := map[string][]string{}
	for _, key := range stats.SortedKeys(decls) {
		fd := decls[key]
		seen := map[string]bool{}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, callee := range resolveCallees(pkg, call, decls, methodsByName) {
				if !seen[callee] {
					seen[callee] = true
					graph[key] = append(graph[key], callee)
				}
			}
			return true
		})
		sort.Strings(graph[key])
	}
	return decls, graph
}

// resolveCallees maps one call expression to same-package declaration keys.
func resolveCallees(pkg *Package, call *ast.CallExpr, decls map[string]*ast.FuncDecl, methodsByName map[string][]string) []string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if _, ok := decls[fun.Name]; ok {
			return []string{fun.Name}
		}
	case *ast.SelectorExpr:
		name := fun.Sel.Name
		if pkg.Info != nil {
			if t := pkg.Info.TypeOf(fun.X); t != nil {
				if ptr, ok := t.(*types.Pointer); ok {
					t = ptr.Elem()
				}
				if named, ok := t.(*types.Named); ok {
					key := named.Obj().Name() + "." + name
					if _, ok := decls[key]; ok {
						return []string{key}
					}
					return nil // resolved to a type without that method here
				}
			}
		}
		// Unresolvable receiver: every same-named method may be the callee.
		return methodsByName[name]
	}
	return nil
}

// hotFunctions BFSes the call graph from the package's roots.
func hotFunctions(pkg *Package, decls map[string]*ast.FuncDecl, graph map[string][]string) map[string]bool {
	var queue []string
	hot := map[string]bool{}
	push := func(key string) {
		if key != "" && !hot[key] && decls[key] != nil {
			hot[key] = true
			queue = append(queue, key)
		}
	}
	for _, key := range hotRootFuncs[pkg.Path] {
		push(key)
	}
	for _, key := range stats.SortedKeys(decls) {
		if hasHotPathDirective(decls[key]) {
			push(key)
		}
	}
	for len(queue) > 0 {
		key := queue[0]
		queue = queue[1:]
		for _, callee := range graph[key] {
			push(callee)
		}
	}
	return hot
}

// hasHotPathDirective scans the raw doc-comment list: //aoslint:hotpath is
// a directive comment (no space after //), which CommentGroup.Text()
// strips, so the check must not go through Text().
func hasHotPathDirective(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.Contains(c.Text, "aoslint:hotpath") {
			return true
		}
	}
	return false
}

// checkHotFunc reports allocation-prone constructs in one hot function.
func checkHotFunc(p *Pass, fd *ast.FuncDecl, name string) {
	info := p.Pkg.Info
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			p.Reportf(n.Pos(), "closure in hot path %s allocates when it captures variables", name)
			return true // its body is still hot code
		case *ast.UnaryExpr:
			if n.Op.String() == "&" {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					p.Reportf(n.Pos(), "heap-escaping composite literal in hot path %s", name)
				}
			}
		case *ast.CallExpr:
			checkHotCall(p, info, n, name)
		}
		return true
	})
}

func checkHotCall(p *Pass, info *types.Info, call *ast.CallExpr, name string) {
	if id, ok := call.Fun.(*ast.Ident); ok {
		switch id.Name {
		case "make", "new":
			p.Reportf(call.Pos(), "%s in hot path %s allocates", id.Name, name)
			return
		case "append":
			p.Reportf(call.Pos(), "append in hot path %s may grow its backing array", name)
			return
		}
	}
	// Address of a plain local passed to a call: the callee may retain the
	// pointer, so the compiler moves the local to the heap (the classic
	// sink.Emit(&in) hidden allocation). Addresses of slice elements or
	// fields (&batch[i], &s.f) point into existing storage and are free.
	for _, arg := range call.Args {
		if u, ok := arg.(*ast.UnaryExpr); ok && u.Op.String() == "&" {
			if _, isIdent := u.X.(*ast.Ident); isIdent {
				p.Reportf(u.Pos(), "address of local passed to call in hot path %s may force a heap escape", name)
			}
		}
	}
	// Interface boxing: a concrete value passed where the (resolvable)
	// signature takes an interface is wrapped in a heap-allocated pair.
	if info == nil {
		return
	}
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok || sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		if sig.Variadic() && i >= params.Len()-1 {
			if slice, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = slice.Elem()
			}
		} else if i < params.Len() {
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || types.IsInterface(at) {
			continue
		}
		if b, ok := at.(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		p.Reportf(arg.Pos(), "concrete value boxed into interface parameter in hot path %s", name)
	}
}

package repro_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestReachability is the reachability gate (DESIGN §23). It
// fails on every declaration under internal/ that nothing live
// references, every *Config field that nothing live sets, every op row
// that no request names, and every //reach:keep that lacks a reason or
// sits on something live.
func TestReachability(t *testing.T) {
	findings, err := reachScan(".", "repro/remos", "benchmark")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// TestReachabilitySeeded runs the gate over a fixture module with one
// mistake of each kind the gate must catch.
func TestReachabilitySeeded(t *testing.T) {
	got, err := reachScan(filepath.Join("testdata", "reach"), "fixture/api")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/store/store.go:8: store.Dead: exported, and nothing live references it",
		"internal/store/store.go:14: store.Config.Spare: nothing live sets it",
		"internal/store/store.go:32: store.Store.Only: exported, and nothing live references it",
		"internal/store/store.go:39: //reach:keep without a reason",
		"internal/store/store.go:44: //reach:keep on store.Kept, which is live",
		`internal/store/store.go:57: op row "drop": no request literal names it`,
		"internal/store/store.go:89: store.trim: nothing live references it",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// reachScan type-checks the non-test packages of the module in root and
// every package, tests included, of each extra module directory, and
// returns the gate's findings as sorted "file:line: message" strings
// with files relative to root. public is the import path of the API
// package whose exported types, methods and fields count as live.
func reachScan(root, public string, extra ...string) ([]string, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	c := &reachChecker{
		fset:    token.NewFileSet(),
		root:    abs,
		std:     importer.Default(),
		pkgs:    map[string]*types.Package{},
		nodes:   map[types.Object]*reachNode{},
		methods: map[*types.TypeName][]*reachNode{},
		public:  map[*types.Var]bool{},
		exposed: map[*types.TypeName]bool{},
		owner:   map[*types.Var]*reachNode{},
	}
	list, err := reachList(abs)
	if err != nil {
		return nil, err
	}
	for _, p := range list {
		if err := c.check(p.ImportPath, p.Dir, p.GoFiles, true); err != nil {
			return nil, err
		}
	}
	for _, dir := range extra {
		list, err := reachList(filepath.Join(abs, dir))
		if err != nil {
			return nil, err
		}
		for _, p := range list {
			if c.pkgs[p.ImportPath] != nil {
				continue // a root-module package the extra module imports
			}
			if err := c.check(p.ImportPath, p.Dir, append(p.GoFiles, p.TestGoFiles...), false); err != nil {
				return nil, err
			}
			if len(p.XTestGoFiles) > 0 {
				if err := c.check(p.ImportPath+"_test", p.Dir, p.XTestGoFiles, false); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := c.collectInterfaces(); err != nil {
		return nil, err
	}
	c.markRoots(public)
	c.drain()
	return c.findings(), nil
}

// reachPackage is the part of `go list -json` output the gate reads.
type reachPackage struct {
	ImportPath, Dir                    string
	Standard                           bool
	GoFiles, TestGoFiles, XTestGoFiles []string
}

// reachList lists the packages of the module in dir and what they
// import, each after its imports, without the standard library.
func reachList(dir string) ([]reachPackage, error) {
	cmd := exec.Command("go", "list", "-json", "-deps", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v: %s", dir, err, stderr.Bytes())
	}
	var list []reachPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p reachPackage
		if err := dec.Decode(&p); err != nil {
			return nil, err
		}
		if !p.Standard {
			list = append(list, p)
		}
	}
	return list, nil
}

// reachChecker holds the type-checked syntax and the mark state.
type reachChecker struct {
	fset  *token.FileSet
	root  string // absolute
	std   types.Importer
	pkgs  map[string]*types.Package
	files []*reachFile

	nodes   map[types.Object]*reachNode
	all     []*reachNode
	methods map[*types.TypeName][]*reachNode // by receiver base type
	work    []*reachNode
	ifaces  []*types.Interface
	public  map[*types.Var]bool       // fields the public API exposes
	exposed map[*types.TypeName]bool  // types the public API exposes
	fields  []*reachField             // exported fields of *Config structs
	owner   map[*types.Var]*reachNode // a *Config field's struct
}

// reachFile is one parsed file. own marks a non-test file of the root
// module, the only files whose declarations the gate reports.
type reachFile struct {
	ast      *ast.File
	info     *types.Info
	name     string // relative to root
	pkg      string // import path
	internal bool   // in a package under internal/
	own      bool
	src      []byte
}

// reachNode is one package-level declaration or method. Marking it live
// marks everything its syntax references.
type reachNode struct {
	obj    types.Object // nil where the type checker records none
	decl   ast.Node
	file   *reachFile
	anchor token.Pos       // where the gate reports it and //reach:keep attaches
	entry  bool            // under internal/, and not _ or init: reported when dead
	recv   *types.TypeName // a method's receiver base type
	live   bool
}

// reachField is an exported field of a *Config struct under internal/.
type reachField struct {
	v      *types.Var
	anchor token.Pos
	file   *reachFile
}

// Import resolves the module's packages from those already checked and
// the standard library from its export data.
func (c *reachChecker) Import(path string) (*types.Package, error) {
	if p, ok := c.pkgs[path]; ok {
		return p, nil
	}
	return c.std.Import(path)
}

// check parses and type-checks one package and records its declarations.
func (c *reachChecker) check(path, dir string, names []string, own bool) error {
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	internal := strings.Contains("/"+path+"/", "/internal/")
	var files []*ast.File
	var recs []*reachFile
	for _, name := range names {
		full := filepath.Join(dir, name)
		src, err := os.ReadFile(full)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(c.fset, full, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(c.root, full)
		if err != nil {
			return err
		}
		files = append(files, f)
		recs = append(recs, &reachFile{ast: f, info: info, name: filepath.ToSlash(rel), pkg: path, internal: internal && own, own: own, src: src})
	}
	conf := types.Config{Importer: c}
	pkg, err := conf.Check(path, c.fset, files, info)
	if err != nil {
		return fmt.Errorf("type-check %s: %v", path, err)
	}
	c.pkgs[path] = pkg
	for _, f := range recs {
		c.files = append(c.files, f)
		c.declare(f)
	}
	return nil
}

// declare records a file's package-level declarations as nodes.
func (c *reachChecker) declare(f *reachFile) {
	for _, d := range f.ast.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			n := c.node(f, f.info.Defs[d.Name], d, d.Pos())
			if d.Recv != nil && n.obj != nil {
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				n.recv = reachBase(f.info.TypeOf(recv))
				c.methods[n.recv] = append(c.methods[n.recv], n)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				anchor := d.Pos()
				if d.Lparen.IsValid() {
					anchor = s.Pos()
				}
				switch s := s.(type) {
				case *ast.TypeSpec:
					n := c.node(f, f.info.Defs[s.Name], s, anchor)
					if st, ok := s.Type.(*ast.StructType); ok && f.internal && strings.HasSuffix(s.Name.Name, "Config") {
						c.configFields(f, n, st)
					}
				case *ast.ValueSpec:
					for _, name := range s.Names {
						c.node(f, f.info.Defs[name], s, anchor)
					}
				}
			}
		}
	}
}

// reachBase is the named type a receiver type denotes, generics by origin.
func reachBase(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

func (c *reachChecker) node(f *reachFile, obj types.Object, decl ast.Node, anchor token.Pos) *reachNode {
	n := &reachNode{obj: obj, decl: decl, file: f, anchor: anchor}
	if obj != nil {
		n.entry = f.internal && obj.Name() != "_" && obj.Name() != "init"
		c.nodes[obj] = n
	}
	c.all = append(c.all, n)
	return n
}

func (c *reachChecker) configFields(f *reachFile, owner *reachNode, st *ast.StructType) {
	for _, field := range st.Fields.List {
		for _, name := range field.Names {
			if v, ok := f.info.Defs[name].(*types.Var); ok && v.Exported() {
				c.fields = append(c.fields, &reachField{v: v, anchor: field.Pos(), file: f})
				c.owner[v] = owner
			}
		}
	}
}

// reachRuntime declares the interfaces the standard library asserts at
// run time rather than in a signature: fmt's Stringer, and what
// errors.Is, errors.As and errors.Unwrap look for.
const reachRuntime = `package runtime
type stringer interface{ String() string }
type wrapper interface { error; Unwrap() error }
type multiWrapper interface { error; Unwrap() []error }
type isser interface { error; Is(error) bool }
type aser interface { error; As(any) bool }
`

// collectInterfaces gathers the interfaces a method may satisfy to stay
// live: every interface type the checked files and reachRuntime write or
// name, error among them, and every interface parameter of a function
// they use, such as sort.Sort's.
func (c *reachChecker) collectInterfaces() error {
	f, err := parser.ParseFile(c.fset, "runtime.go", reachRuntime, 0)
	if err != nil {
		return err
	}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}}
	if _, err := (&types.Config{}).Check("runtime", c.fset, []*ast.File{f}, info); err != nil {
		return err
	}
	seen := map[*types.Interface]bool{}
	add := func(t types.Type) {
		if i, ok := t.Underlying().(*types.Interface); ok && i.NumMethods() > 0 && i.IsMethodSet() && !seen[i] {
			seen[i] = true
			c.ifaces = append(c.ifaces, i)
		}
	}
	files := append([]*reachFile{{ast: f, info: info}}, c.files...)
	uses := map[*types.Info]bool{} // a package's files share one Info
	for _, f := range files {
		ast.Inspect(f.ast, func(x ast.Node) bool {
			if it, ok := x.(*ast.InterfaceType); ok {
				add(f.info.TypeOf(it))
			}
			return true
		})
		if uses[f.info] {
			continue
		}
		uses[f.info] = true
		for _, obj := range f.info.Uses {
			switch obj := obj.(type) {
			case *types.TypeName:
				add(obj.Type())
			case *types.Func:
				params := obj.Type().(*types.Signature).Params()
				for i := 0; i < params.Len(); i++ {
					add(params.At(i).Type())
				}
			}
		}
	}
	return nil
}

// markRoots marks what is live without being referenced: every
// declaration outside internal/ or in an extra module, every _ and init
// under internal/, and the closure of what the public package's
// exported API exposes.
func (c *reachChecker) markRoots(public string) {
	for _, n := range c.all {
		if n.obj == nil || !n.entry {
			c.mark(n)
		}
	}
	if p := c.pkgs[public]; p != nil {
		for _, name := range p.Scope().Names() {
			if obj := p.Scope().Lookup(name); obj.Exported() {
				c.expose(obj.Type())
			}
		}
	}
}

func (c *reachChecker) mark(n *reachNode) {
	if n != nil && !n.live {
		n.live = true
		c.work = append(c.work, n)
	}
}

// markObj marks the node an object from Uses declares, and a method's
// receiver type with it.
func (c *reachChecker) markObj(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	if n := c.nodes[obj]; n != nil {
		c.mark(n)
		if n.recv != nil {
			c.mark(c.nodes[n.recv])
		}
	}
}

// drain marks until nothing new is live.
func (c *reachChecker) drain() {
	for len(c.work) > 0 {
		n := c.work[len(c.work)-1]
		c.work = c.work[:len(c.work)-1]
		info := n.file.info
		ast.Inspect(n.decl, func(x ast.Node) bool {
			if id, ok := x.(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil {
					c.markObj(obj)
				}
			}
			return true
		})
		if tn, ok := n.obj.(*types.TypeName); ok {
			c.liveType(tn)
		}
	}
}

// liveType marks every method that makes a live type, or a pointer to
// it, satisfy one of the interfaces.
func (c *reachChecker) liveType(tn *types.TypeName) {
	named, ok := tn.Type().(*types.Named)
	if !ok || named.TypeParams().Len() > 0 || types.IsInterface(named) {
		return
	}
	ptr := types.NewPointer(named)
	for _, i := range c.ifaces {
		if !types.Implements(ptr, i) {
			continue
		}
		for k := 0; k < i.NumMethods(); k++ {
			m, _, _ := types.LookupFieldOrMethod(ptr, false, i.Method(k).Pkg(), i.Method(k).Name())
			if m != nil {
				c.markObj(m)
			}
		}
	}
}

// expose marks the types, methods and fields reachable from a public
// type, and records the fields so that the *Config check skips them.
func (c *reachChecker) expose(t types.Type) {
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		tn := t.Origin().Obj()
		n := c.nodes[tn]
		if n == nil || c.exposed[tn] {
			return
		}
		c.exposed[tn] = true
		c.mark(n)
		if types.IsInterface(t) {
			c.expose(t.Underlying())
			return
		}
		ms := types.NewMethodSet(types.NewPointer(t))
		for i := 0; i < ms.Len(); i++ {
			if m := ms.At(i).Obj(); m.Exported() {
				c.markObj(m)
				c.expose(m.Type())
			}
		}
		c.expose(t.Underlying())
	case *types.Pointer:
		c.expose(t.Elem())
	case *types.Slice:
		c.expose(t.Elem())
	case *types.Array:
		c.expose(t.Elem())
	case *types.Chan:
		c.expose(t.Elem())
	case *types.Map:
		c.expose(t.Key())
		c.expose(t.Elem())
	case *types.Signature:
		for _, tuple := range []*types.Tuple{t.Params(), t.Results()} {
			for i := 0; i < tuple.Len(); i++ {
				c.expose(tuple.At(i).Type())
			}
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if f := t.Field(i); f.Exported() || f.Embedded() {
				c.public[f.Origin()] = true
				c.expose(f.Type())
			}
		}
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			c.expose(t.Method(i).Type())
		}
	}
}

// reachOp is one opTable row.
type reachOp struct {
	pkg, name string
	anchor    token.Pos
	file      *reachFile
}

// reachKeep is one //reach:keep line.
type reachKeep struct {
	at     reachAt // the keep's own line
	reason string
}

// reachEntry is one declaration the gate checks, in its state after a
// drain.
type reachEntry struct {
	at        reachAt // its anchor
	pkg       string  // import path of its package
	name, msg string
	dead      bool
	covered   bool // a dead type's method or field: its type's entry reports it
}

// findings reports the dead entries and the misplaced //reach:keep
// lines. A keep is judged against what is live without any keep; then
// each kept declaration, and a kept type's methods, is marked live, so
// that what only kept code uses needs no keep of its own.
func (c *reachChecker) findings() []string {
	keeps := c.keeps()
	pkgKeeps := map[string]reachAt{} // a keep on the package clause, by import path
	for _, f := range c.files {
		if at := c.at(f, f.ast.Package); f.own && keeps[at] != nil {
			pkgKeeps[f.pkg] = at
		}
	}
	reasoned := func(at reachAt) bool { return keeps[at] != nil && keeps[at].reason != "" }
	before := c.entries()
	for _, n := range c.all {
		if n.entry && (reasoned(c.at(n.file, n.anchor)) || reasoned(pkgKeeps[n.file.pkg])) {
			c.mark(n)
			if tn, ok := n.obj.(*types.TypeName); ok {
				for _, m := range c.methods[tn] {
					c.mark(m)
				}
			}
		}
	}
	c.drain()

	type finding struct {
		at  reachAt
		msg string
	}
	var out []finding
	for _, e := range c.entries() {
		if e.dead && !e.covered && keeps[e.at] == nil && keeps[pkgKeeps[e.pkg]] == nil {
			out = append(out, finding{e.at, e.name + ": " + e.msg})
		}
	}
	dead := map[reachAt]bool{}
	live := map[reachAt]string{}
	for _, e := range before {
		if e.dead {
			dead[e.at] = true
			dead[pkgKeeps[e.pkg]] = true
		} else {
			live[e.at] = e.name
		}
	}
	for pkg, at := range pkgKeeps {
		if !dead[at] {
			live[at] = "package " + pkg
		}
	}
	for at, k := range keeps {
		switch {
		case k.reason == "":
			out = append(out, finding{k.at, "//reach:keep without a reason"})
		case dead[at]:
		case live[at] != "":
			out = append(out, finding{k.at, "//reach:keep on " + live[at] + ", which is live"})
		default:
			out = append(out, finding{k.at, "//reach:keep on no declaration the gate checks"})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].at, out[j].at
		return a.file < b.file || a.file == b.file && a.line < b.line
	})
	lines := make([]string, len(out))
	for i, f := range out {
		lines[i] = f.at.String() + ": " + f.msg
	}
	return lines
}

// reachAt is a line of a file, relative to the root.
type reachAt struct {
	file string
	line int
}

func (a reachAt) String() string { return fmt.Sprintf("%s:%d", a.file, a.line) }

func (c *reachChecker) at(f *reachFile, pos token.Pos) reachAt {
	return reachAt{f.name, c.fset.Position(pos).Line}
}

// entries walks the live syntax for *Config field sets, request
// literals and op rows, and returns every entry with its state.
func (c *reachChecker) entries() []reachEntry {
	set := map[*types.Var]bool{}
	named := map[string]bool{} // "pkgpath.op" of every request literal
	var ops []reachOp
	for _, n := range c.all {
		if !n.live {
			continue
		}
		info := n.file.info
		var fill *reachNode // the type whose own fill n is
		if fd, ok := n.decl.(*ast.FuncDecl); ok && n.recv != nil && fd.Name.Name == "fill" {
			fill = c.nodes[n.recv]
		}
		setField := func(v *types.Var) {
			if owner := c.owner[v.Origin()]; owner != nil && owner != fill {
				set[v.Origin()] = true
			}
		}
		ast.Inspect(n.decl, func(x ast.Node) bool {
			var lhs []ast.Expr
			switch x := x.(type) {
			case *ast.AssignStmt:
				lhs = x.Lhs
			case *ast.IncDecStmt:
				lhs = []ast.Expr{x.X}
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					lhs = []ast.Expr{x.X}
				}
			case *ast.CompositeLit:
				c.literal(info, x, setField, named)
			}
			for _, e := range lhs {
				if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
					if v, ok := info.Uses[sel.Sel].(*types.Var); ok {
						setField(v)
					}
				}
			}
			return true
		})
		if vs, ok := n.decl.(*ast.ValueSpec); ok && n.file.own && n.obj != nil && n.obj.Name() == "opTable" && len(vs.Values) == 1 {
			ops = append(ops, c.opRows(n, vs.Values[0])...)
		}
	}

	var out []reachEntry
	for _, n := range c.all {
		if n.entry {
			msg := "nothing live references it"
			if n.obj.Exported() {
				msg = "exported, and " + msg
			}
			out = append(out, reachEntry{at: c.at(n.file, n.anchor), pkg: n.file.pkg, name: reachName(n.obj),
				msg: msg, dead: !n.live,
				covered: n.recv != nil && !c.nodes[n.recv].live})
		}
	}
	for _, f := range c.fields {
		owner := c.owner[f.v]
		out = append(out, reachEntry{at: c.at(f.file, f.anchor), pkg: f.file.pkg, name: reachName(owner.obj) + "." + f.v.Name(),
			msg: "nothing live sets it", dead: !set[f.v] && !c.public[f.v], covered: !owner.live})
	}
	for _, op := range ops {
		out = append(out, reachEntry{at: c.at(op.file, op.anchor), pkg: op.file.pkg, name: fmt.Sprintf("op row %q", op.name),
			msg: "no request literal names it", dead: !named[op.pkg+"."+op.name]})
	}
	return out
}

// literal records the *Config fields a composite literal sets and the op
// a request literal names.
func (c *reachChecker) literal(info *types.Info, lit *ast.CompositeLit, setField func(*types.Var), named map[string]bool) {
	t := info.TypeOf(lit)
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, e := range lit.Elts {
		kv, keyed := e.(*ast.KeyValueExpr)
		if !keyed {
			setField(st.Field(i))
			continue
		}
		v, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var)
		if !ok {
			continue
		}
		setField(v)
		if tn := reachBase(t); tn != nil && tn.Name() == "request" && v.Name() == "Op" {
			if tv := info.Types[kv.Value]; tv.Value != nil && tv.Value.Kind() == constant.String {
				named[tn.Pkg().Path()+"."+constant.StringVal(tv.Value)] = true
			}
		}
	}
}

// opRows lists the rows of an opTable literal by their name keys.
func (c *reachChecker) opRows(n *reachNode, value ast.Expr) []reachOp {
	table, ok := value.(*ast.CompositeLit)
	if !ok {
		return nil
	}
	var ops []reachOp
	for _, e := range table.Elts {
		row, ok := e.(*ast.CompositeLit)
		if !ok {
			continue
		}
		for _, f := range row.Elts {
			kv, ok := f.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "name" {
				if tv := n.file.info.Types[kv.Value]; tv.Value != nil && tv.Value.Kind() == constant.String {
					ops = append(ops, reachOp{pkg: n.obj.Pkg().Path(), name: constant.StringVal(tv.Value), anchor: row.Pos(), file: n.file})
				}
			}
		}
	}
	return ops
}

// keeps returns the root module's //reach:keep lines by the line of the
// declaration each is on. A keep on a line of its own is on the
// next line below it that is not a comment line; a keep after code is
// on its own line.
func (c *reachChecker) keeps() map[reachAt]*reachKeep {
	keeps := map[reachAt]*reachKeep{}
	for _, f := range c.files {
		if !f.own {
			continue
		}
		tf := c.fset.File(f.ast.Pos())
		alone := map[int]bool{} // lines that hold only a comment
		var found []*ast.Comment
		for _, g := range f.ast.Comments {
			for _, cm := range g.List {
				line := tf.Line(cm.Pos())
				if len(bytes.TrimSpace(f.src[tf.Offset(tf.LineStart(line)):tf.Offset(cm.Pos())])) == 0 {
					alone[line] = true
				}
				if rest, ok := strings.CutPrefix(cm.Text, "//reach:keep"); ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t') {
					found = append(found, cm)
				}
			}
		}
		for _, cm := range found {
			line := tf.Line(cm.Pos())
			if alone[line] {
				for line++; alone[line]; line++ {
				}
			}
			reason := strings.TrimSpace(strings.TrimPrefix(cm.Text, "//reach:keep"))
			keeps[reachAt{f.name, line}] = &reachKeep{at: c.at(f, cm.Pos()), reason: reason}
		}
	}
	return keeps
}

// reachName names a declaration as pkg.Name or pkg.Type.Method.
func reachName(obj types.Object) string {
	name := obj.Name()
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			name = reachBase(recv.Type()).Name() + "." + name
		}
	}
	return obj.Pkg().Name() + "." + name
}

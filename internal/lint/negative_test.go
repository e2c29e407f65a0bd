package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// copyModuleTree copies the real module — go.mod, the root package's
// non-test files, and the full internal tree — into a temp dir so tests
// can inject violations without touching the repo.
func copyModuleTree(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	src := filepath.Join("..", "..")
	// The root uavdc package rides along (internal/serve imports it);
	// test files stay behind so no testdata is needed.
	rootGo, err := filepath.Glob(filepath.Join(src, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	files := []string{"go.mod"}
	for _, f := range rootGo {
		if !strings.HasSuffix(f, "_test.go") {
			files = append(files, filepath.Base(f))
		}
	}
	for _, f := range files {
		raw, err := os.ReadFile(filepath.Join(src, f))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, f), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.CopyFS(filepath.Join(root, "internal"), os.DirFS(filepath.Join(src, "internal"))); err != nil {
		t.Fatalf("copy internal tree: %v", err)
	}
	return root
}

// TestInjectedCrossUnitCastFailsLint verifies the unitsafety gate end to
// end on the real codebase, not just the fixture: a copy of the module's
// internal tree with a units.Joules(m.Speed) cross-unit cast injected
// into internal/core must come back with exactly that active diagnostic
// — the condition under which `make lint` (and so `make ci`) exits
// non-zero. Copying into t.TempDir keeps the poison out of the repo.
func TestInjectedCrossUnitCastFailsLint(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a copy of the internal tree; skipped in -short")
	}
	root := copyModuleTree(t)
	poison := `package core

import (
	"uavdc/internal/energy"
	"uavdc/internal/units"
)

// InjectedBudget deliberately crosses speed into energy without a
// helper; unitsafety must reject it.
func InjectedBudget(m energy.Model) units.Joules {
	return units.Joules(m.Speed)
}
`
	if err := os.WriteFile(filepath.Join(root, "internal", "core", "zz_injected.go"), []byte(poison), 0o644); err != nil {
		t.Fatal(err)
	}
	mod, err := Load(root)
	if err != nil {
		t.Fatalf("Load(copied module): %v", err)
	}
	active := Active(Run(mod, All()))
	if len(active) != 1 {
		for _, d := range active {
			t.Logf("active: %s", d.String())
		}
		t.Fatalf("got %d active diagnostics, want exactly the injected one", len(active))
	}
	d := active[0]
	if d.Analyzer != "unitsafety" || d.Path != "internal/core/zz_injected.go" ||
		!strings.Contains(d.Message, "cross-unit conversion units.MetersPerSecond → units.Joules") {
		t.Errorf("unexpected diagnostic: %s", d.String())
	}
}

// TestInjectedImpureEffectFailsPurePlan verifies the purity gate end to
// end on the real codebase: a copy of the module with a package-level
// counter bump injected at three sites must come back with exactly one
// active pureplan diagnostic per site, each with a chain that walks from
// a planner entry point down to the injected write. The sites are
// scanIndex.drained, deep in the accept path; Algorithm3.evalLoc, which
// only the eval closure handed to the shared scan calls (a func-literal
// edge); and the generic scanBest itself (a call to an implicitly
// instantiated function). A call graph that dropped either edge kind
// would prove less without this test failing otherwise. This is the
// failure `make ci`'s lint step exists to catch: silent global state
// accumulating under the plan cache.
func TestInjectedImpureEffectFailsPurePlan(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a copy of the internal tree; skipped in -short")
	}
	root := copyModuleTree(t)
	// inject adds a write to injectedTally right after anchor in file.
	inject := func(file, anchor string) {
		t.Helper()
		path := filepath.Join(root, "internal", "core", file)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(raw), anchor) {
			t.Fatalf("injection anchor %q not found in %s", anchor, file)
		}
		poisoned := strings.Replace(string(raw), anchor, anchor+"\n\tinjectedTally++", 1)
		if err := os.WriteFile(path, []byte(poisoned), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	inject("fastscan.go", "func (ix *scanIndex) drained(v int) {")
	inject("fastscan.go", "\tresults := make([]pick, workers)")
	inject("algorithm3.go", "func (a *Algorithm3) evalLoc(st *greedyState, k, c int, cur units.Joules, so scanObs) (partialCandidate, float64, bool) {")
	decl := "package core\n\n// injectedTally is the deliberately impure accumulator.\nvar injectedTally int\n"
	if err := os.WriteFile(filepath.Join(root, "internal", "core", "zz_injected.go"), []byte(decl), 0o644); err != nil {
		t.Fatal(err)
	}
	mod, err := Load(root)
	if err != nil {
		t.Fatalf("Load(copied module): %v", err)
	}
	active := Active(Run(mod, All()))
	if len(active) != 3 {
		for _, d := range active {
			t.Logf("active: %s", d.String())
		}
		t.Fatalf("got %d active diagnostics, want exactly the three injected ones", len(active))
	}
	const write = "write to package-level var core.injectedTally"
	want := []struct{ path, chain string }{
		{"internal/core/algorithm3.go", "entry point core.Algorithm3.Plan: core.Algorithm3.Plan → core.Algorithm3.pickNext → core.Algorithm3.pickNext.func1 → core.Algorithm3.evalLoc → " + write},
		{"internal/core/fastscan.go", "core.scanIndex.drained → " + write},
		{"internal/core/fastscan.go", "entry point core.Algorithm2.Plan: core.Algorithm2.Plan → core.Algorithm2.pickNext → core.scanBest → " + write},
	}
	for _, w := range want {
		found := false
		for _, d := range active {
			if d.Analyzer == "pureplan" && d.Path == w.path && strings.Contains(d.Message, w.chain) &&
				strings.Contains(d.Message, write+" reachable from entry point") {
				found = true
			}
		}
		if !found {
			for _, d := range active {
				t.Logf("active: %s", d.String())
			}
			t.Errorf("no pureplan diagnostic in %s with chain %q", w.path, w.chain)
		}
	}
}

// TestInjectedConcurrencyViolationsFailLint does the same for the three
// concurrency-contract analyzers in one pass: a copy of the module with
// one violation per analyzer injected — a leaked lock, a detached
// goroutine, and a stale wire tag — must come back with exactly those
// three active diagnostics and nothing else.
func TestInjectedConcurrencyViolationsFailLint(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a copy of the internal tree; skipped in -short")
	}
	root := copyModuleTree(t)
	poisons := []struct{ name, src string }{
		{"zz_locksafety.go", `package core

import "sync"

type injectedGuard struct {
	mu sync.Mutex
	n  int
}

// injectedLeak deliberately leaks the lock on the early return.
func (g *injectedGuard) injectedLeak(flag bool) int {
	g.mu.Lock()
	if flag {
		return 0
	}
	g.mu.Unlock()
	return g.n
}
`},
		{"zz_golifecycle.go", `package core

// injectedSpawn deliberately detaches a goroutine.
func injectedSpawn(out *int) {
	go func() {
		*out = 1
	}()
}
`},
		{"zz_wirefmt.go", `package core

// injectedSchema deliberately pins a stale wire version.
const injectedSchema = "uavdc-oplog/2"
`},
	}
	for _, p := range poisons {
		if err := os.WriteFile(filepath.Join(root, "internal", "core", p.name), []byte(p.src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mod, err := Load(root)
	if err != nil {
		t.Fatalf("Load(copied module): %v", err)
	}
	active := Active(Run(mod, All()))
	if len(active) != 3 {
		for _, d := range active {
			t.Logf("active: %s", d.String())
		}
		t.Fatalf("got %d active diagnostics, want exactly the three injected ones", len(active))
	}
	want := []struct{ analyzer, path, msg string }{
		{"locksafety", "internal/core/zz_locksafety.go", "locked here but not unlocked on every return path"},
		{"golifecycle", "internal/core/zz_golifecycle.go", "not tied to a shutdown path"},
		{"wirefmt", "internal/core/zz_wirefmt.go", `pins version 2 but the registry's current version is 1`},
	}
	seen := map[string]bool{}
	for _, d := range active {
		seen[d.Analyzer] = true
	}
	for _, w := range want {
		if !seen[w.analyzer] {
			t.Errorf("injected %s violation did not fire", w.analyzer)
			continue
		}
		for _, d := range active {
			if d.Analyzer != w.analyzer {
				continue
			}
			if d.Path != w.path || !strings.Contains(d.Message, w.msg) {
				t.Errorf("%s: unexpected diagnostic: %s", w.analyzer, d.String())
			}
		}
	}
}

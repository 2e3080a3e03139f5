package lint_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"birch/internal/lint"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

var (
	loadOnce sync.Once
	loadedM  *lint.Module
	loadErr  error
)

// loadModule parses and type-checks the whole module once per test
// binary; every test shares the result.
func loadModule(t *testing.T) *lint.Module {
	t.Helper()
	loadOnce.Do(func() {
		root, err := lint.FindModuleRoot(".")
		if err != nil {
			loadErr = err
			return
		}
		loadedM, loadErr = lint.LoadModule(root, lint.LoadOptions{})
	})
	if loadErr != nil {
		t.Fatalf("loading module: %v", loadErr)
	}
	return loadedM
}

// TestPassGolden runs each pass over its fixture package and compares the
// diagnostics with the checked-in golden file. Each fixture mixes
// positive cases (in the golden file), negative cases (absent), and
// suppression examples (absent because suppressed). Regenerate with
// `go test ./internal/lint -run TestPassGolden -update`.
func TestPassGolden(t *testing.T) {
	for _, pass := range lint.AllPasses() {
		t.Run(pass.Name(), func(t *testing.T) {
			m := loadModule(t)
			fixture, err := m.LoadDir(filepath.Join("testdata", "src", pass.Name()))
			if err != nil {
				t.Fatalf("loading fixture: %v", err)
			}
			diags := lint.Run(m, []lint.Pass{pass}, []*lint.Package{fixture})
			if len(diags) == 0 {
				t.Fatalf("fixture for %s produced no diagnostics; positive cases are broken", pass.Name())
			}
			var buf bytes.Buffer
			for _, d := range diags {
				fmt.Fprintf(&buf, "%s:%d:%d: [%s] %s\n",
					filepath.Base(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Pass, d.Message)
			}
			golden := filepath.Join("testdata", pass.Name()+".golden")
			if *update {
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("reading golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want (%s) ---\n%s", buf.Bytes(), golden, want)
			}
		})
	}
}

// TestStaleGolden covers stale-suppression detection, which is not a
// Pass (it post-processes Run's suppression evidence) and so needs its
// own golden harness. The fixture mixes live, dead, whitelisted, and
// not-executed suppressions; only the dead ones appear in the golden.
func TestStaleGolden(t *testing.T) {
	m := loadModule(t)
	fixture, err := m.LoadDir(filepath.Join("testdata", "src", "stale"))
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	passes := lint.AllPasses()
	if diags := lint.Run(m, passes, []*lint.Package{fixture}); len(diags) != 0 {
		t.Fatalf("stale fixture should be diagnostic-free under Run (live ignores suppress), got %v", diags)
	}
	stale := lint.Stale(m, passes, []*lint.Package{fixture})
	if len(stale) == 0 {
		t.Fatal("stale fixture produced no stale findings; positive cases are broken")
	}
	var buf bytes.Buffer
	for _, d := range stale {
		fmt.Fprintf(&buf, "%s:%d:%d: [%s] %s\n",
			filepath.Base(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Pass, d.Message)
	}
	golden := filepath.Join("testdata", "stale.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("stale mismatch\n--- got ---\n%s--- want (%s) ---\n%s", buf.Bytes(), golden, want)
	}
}

// TestRepoIsClean is the self-check gate: the repository's own packages
// must produce zero diagnostics under the full suite, and every
// //birchlint:ignore comment must still be earning its keep.
func TestRepoIsClean(t *testing.T) {
	m := loadModule(t)
	diags := lint.Run(m, lint.AllPasses(), m.Packages)
	for _, d := range diags {
		t.Errorf("repo not lint-clean: %s", d)
	}
	for _, d := range lint.Stale(m, lint.AllPasses(), m.Packages) {
		t.Errorf("stale suppression: %s", d)
	}
}

// TestHotPathAnnotationCoverage pins the static/dynamic cross-reference:
// every function exercised by a testing.AllocsPerRun gate must carry a
// //birchlint:hotpath annotation, so the hotpath pass analyzes exactly
// the code the dynamic gates measure. The gate tests name their
// annotated functions in comments; this list is the meeting point.
func TestHotPathAnnotationCoverage(t *testing.T) {
	m := loadModule(t)
	annotated := make(map[string]bool)
	for _, name := range m.AnnotatedFuncs("hotpath") {
		annotated[name] = true
	}
	// One entry per AllocsPerRun gate (see the matching test comments):
	//   cftree/alloc_test.go  TestInsertAbsorbAllocs, TestInsertAppendAllocsBounded
	//   core/alloc_test.go    TestEngineAddAbsorbAllocs,
	//                         TestEngineAddPointsAbsorbAllocs
	//   kmeans/parallel_test.go TestAssignSteadyStateAllocs
	//   cf/flatscan_test.go   TestBlockSetPointZeroAlloc
	//   stream/snapshot_test.go TestSnapshotClassifyAllocs
	//   server/alloc_test.go  TestWireEncodeAllocs, TestWireDecodeAllocs
	//   cftree/sparse_test.go TestInsertSparseAbsorbAllocs
	//   cf/sparse_test.go     TestSetPointSparseMatchesSetPoint,
	//                         TestBlockSetPointSparseBitIdentical
	//   server/sparse_wire_test.go TestSparseWireAllocs
	// The dense fused scans are reached through the tree and assignment
	// gates (TestInsertAbsorbAllocs, TestAssignSteadyStateAllocs).
	for _, want := range []string{
		"birch/internal/cftree.Tree.Insert",
		"birch/internal/cftree.Tree.InsertNoSplit",
		"birch/internal/cftree.Tree.insert",
		"birch/internal/core.Engine.Add",
		"birch/internal/core.Engine.addPoints",
		"birch/internal/vec.LoadAhead",
		"birch/internal/kmeans.Assigner.assignChunk",
		"birch/internal/kmeans.Assigner.Assign",
		"birch/internal/cf.Block.SetPoint",
		"birch/internal/cf.Block.AppendPoint",
		"birch/internal/stream.Engine.Classify",
		"birch/internal/stream.Snapshot.Classify",
		"birch/internal/server.AppendPointsFrame",
		"birch/internal/server.AppendClassifyResultFrame",
		"birch/internal/server.DecodeFrame",
		"birch/internal/server.DecodePointsInto",
		"birch/internal/server.DecodeClassifyResultInto",
		"birch/internal/cftree.Tree.InsertSparse",
		"birch/internal/cftree.Tree.InsertSparseNoSplit",
		"birch/internal/cftree.Tree.insertSparse",
		"birch/internal/cf.CF.SetPointSparse",
		"birch/internal/cf.Block.SetPointSparse",
		"birch/internal/cf.Block.AppendPointSparse",
		"birch/internal/cf.Query.BindSparse",
		"birch/internal/cf.scanCosSparse",
		"birch/internal/cf.scanD2Sparse",
		"birch/internal/cf.scanCos",
		"birch/internal/cf.scanD0",
		"birch/internal/cf.scanD1",
		"birch/internal/cf.scanD2",
		"birch/internal/cf.scanD3",
		"birch/internal/cf.scanD4",
		"birch/internal/cf.scanD2b",
		"birch/internal/cf.scanD3b",
		"birch/internal/cf.ScanNearestX0",
		"birch/internal/server.AppendSparsePointsFrame",
		"birch/internal/server.DecodeSparsePointsInto",
	} {
		if !annotated[want] {
			t.Errorf("AllocsPerRun-gated function %s is missing //birchlint:hotpath", want)
		}
	}
}

// TestModuleTypeChecks asserts the loader produced fully type-checked
// packages; type errors would silently weaken every type-driven pass.
func TestModuleTypeChecks(t *testing.T) {
	m := loadModule(t)
	if len(m.Packages) == 0 {
		t.Fatal("no packages loaded")
	}
	for _, pkg := range m.Packages {
		for _, err := range pkg.TypeErrors {
			t.Errorf("%s: type error: %v", pkg.Path, err)
		}
	}
}

// TestPassesByName covers subset selection and the unknown-pass error.
func TestPassesByName(t *testing.T) {
	got, err := lint.PassesByName([]string{"floateq", "cfmutate"})
	if err != nil || len(got) != 2 {
		t.Fatalf("PassesByName(floateq,cfmutate) = %v, %v", got, err)
	}
	if got[0].Name() != "floateq" || got[1].Name() != "cfmutate" {
		t.Fatalf("wrong passes resolved: %v", got)
	}
	if _, err := lint.PassesByName([]string{"nope"}); err == nil {
		t.Fatal("expected error for unknown pass")
	}
}

// TestPassDocs makes sure every pass documents itself for -list.
func TestPassDocs(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range lint.AllPasses() {
		if p.Name() == "" || p.Doc() == "" {
			t.Errorf("pass %T missing Name or Doc", p)
		}
		if seen[p.Name()] {
			t.Errorf("duplicate pass name %q", p.Name())
		}
		seen[p.Name()] = true
	}
}

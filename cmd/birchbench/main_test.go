package main

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// repoRoot is where the reports are committed, relative to this package.
var repoRoot = filepath.Join("..", "..")

func suiteFiles() map[string]bool {
	files := make(map[string]bool, len(suites))
	for _, s := range suites {
		files[s.file] = true
	}
	return files
}

// TestCommittedReportsMatchSuites requires the BENCH_*.json files at the
// repo root to be exactly the files the suite table writes, so a retired
// suite cannot leave its report behind.
func TestCommittedReportsMatchSuites(t *testing.T) {
	want := suiteFiles()
	paths, err := filepath.Glob(filepath.Join(repoRoot, "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]bool, len(paths))
	for _, p := range paths {
		name := filepath.Base(p)
		got[name] = true
		if !want[name] {
			t.Errorf("%s is committed, but no suite writes it", name)
		}
	}
	for name := range want {
		if !got[name] {
			t.Errorf("suite report %s is not committed", name)
		}
	}
}

// TestDocsNameOnlySuiteReports requires every BENCH_*.json that README.md,
// DESIGN.md or the Makefile names to be one the harness writes.
// CHANGES.md and ROADMAP.md record history and may name retired files.
func TestDocsNameOnlySuiteReports(t *testing.T) {
	want := suiteFiles()
	ref := regexp.MustCompile(`BENCH_\w+\.json`)
	for _, doc := range []string{"README.md", "DESIGN.md", "Makefile"} {
		data, err := os.ReadFile(filepath.Join(repoRoot, doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range ref.FindAllString(string(data), -1) {
			if !want[name] {
				t.Errorf("%s names %s, which no suite writes", doc, name)
			}
		}
	}
}

// TestVerifyReportRequiresCPUModel: a report whose meta lacks the CPU
// model fails verification; the same report with it passes.
func TestVerifyReportRequiresCPUModel(t *testing.T) {
	s := suite{name: "probe", file: "BENCH_probe.json", verify: func(*Report, bool) error { return nil }}
	path := filepath.Join(t.TempDir(), s.file)
	for _, model := range []string{"", "probe CPU"} {
		rep := Report{Meta: Meta{GoVersion: "go1", CPUModel: model}}
		if err := writeReport(path, rep); err != nil {
			t.Fatal(err)
		}
		err := verifyReport(path, s, true)
		if (err == nil) != (model != "") {
			t.Fatalf("cpu_model %q: verifyReport returned %v", model, err)
		}
	}
	if cpuModel() == "" {
		t.Fatal("cpuModel returned an empty string")
	}
}

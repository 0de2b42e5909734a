package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestBenchQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite in -short mode")
	}
	var b strings.Builder
	err := run([]string{"-quick", "-workload", "6", "-k", "2", "-seed", "3"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"E1: Full lattice", "E2: Cost model comparison", "E3: Budget sweep",
		"E4: Query performance analyzer", "E5: Cost model fidelity",
		"E6: Learned cost model training", "E7: Memory-budget selection",
		"E8: Hands-on challenge", "total experiment time",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestBenchMarkdownToFile(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite in -short mode")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "report.md")
	var b strings.Builder
	err := run([]string{"-quick", "-workload", "5", "-k", "2", "-markdown", "-out", path}, &b)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "### E1: Full lattice") {
		t.Errorf("markdown file:\n%.400s", data)
	}
}

func TestBenchBadFlag(t *testing.T) {
	var b strings.Builder
	for _, flag := range []string{"-nonsense", "-codec=flat"} {
		if err := run([]string{flag}, &b); err == nil || !strings.Contains(err.Error(), "not defined") {
			t.Errorf("%s: err = %v, want an undefined-flag error", flag, err)
		}
	}
}

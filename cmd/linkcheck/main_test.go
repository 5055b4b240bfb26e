package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, path, body string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestLinkcheckResolvesRelativeLinks(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "docs", "GUIDE.md"),
		"See [the API](API.md), [the roadmap](../ROADMAP.md#open-items), "+
			"[examples](../examples), and [upstream](https://example.com) "+
			"plus [an anchor](#local) and [mail](mailto:x@y.z).")
	write(t, filepath.Join(dir, "docs", "API.md"), "See [guide](GUIDE.md).")
	write(t, filepath.Join(dir, "ROADMAP.md"), "ok")
	if err := os.MkdirAll(filepath.Join(dir, "examples"), 0o755); err != nil {
		t.Fatal(err)
	}
	broken, err := run(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(broken) != 0 {
		t.Fatalf("clean tree reported broken links: %v", broken)
	}
}

func TestLinkcheckFlagsMissingTargets(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "README.md"),
		"A [dead link](docs/NOPE.md), a [live one](LIVE.md), "+
			"a [titled dead one](GONE.md \"the title\"), "+
			"and a [titled live one](LIVE.md \"still here\").")
	write(t, filepath.Join(dir, "LIVE.md"), "ok")
	broken, err := run(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(broken) != 2 || !strings.Contains(broken[0], "NOPE.md") || !strings.Contains(broken[1], "GONE.md") {
		t.Fatalf("broken = %v, want exactly the NOPE.md and GONE.md misses", broken)
	}
}

func TestLinkcheckSkipsVCSTrees(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, ".git", "junk.md"), "[dead](missing.md)")
	write(t, filepath.Join(dir, "vendor", "dep", "doc.md"), "[dead](missing.md)")
	broken, err := run(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(broken) != 0 {
		t.Fatalf("VCS/vendor trees were checked: %v", broken)
	}
}

// Only Go files are skipped under hidden directories: Markdown there, such
// as a workflow or skill guide, is still the repository's documentation.
func TestLinkcheckChecksMarkdownInHiddenDirs(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, ".github", "GUIDE.md"), "[dead](missing.md)")
	write(t, filepath.Join(dir, ".cache", "pkg", "x.go"), "// cites NOPE.md\npackage x\n")
	broken, err := run(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(broken) != 1 || !strings.Contains(broken[0], "missing.md") {
		t.Fatalf("broken = %v, want exactly the missing.md link in .github", broken)
	}
}

// The repository's own docs must be clean — the same invariant CI
// enforces, asserted here so `go test ./...` catches a dead link before
// a PR does.
func TestRepositoryDocsHaveNoBrokenLinks(t *testing.T) {
	broken, err := run("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range broken {
		t.Error(msg)
	}
}

func TestLinkcheckFlagsMissingDocsCitedInGoComments(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "PAPER.md"), "ok")
	write(t, filepath.Join(dir, "docs", "API.md"), "ok")
	write(t, filepath.Join(dir, "pkg", "NOTES.md"), "ok")
	write(t, filepath.Join(dir, "pkg", "pkg.go"), `// Package pkg follows PAPER.md, docs/API.md and NOTES.md (next to
// this file) but also cites DESIGN.md and docs/GONE.md.
//
//	tool -format md > results.md
//
// See https://example.com/README.md for upstream.
package pkg

/* A block comment citing EXPERIMENTS.md. */

// The string below is not a comment.
var s = "MISSING.md"
`)
	// Hidden trees such as build caches are not the repository's code.
	write(t, filepath.Join(dir, ".cache", "x.go"), "// cites NOPE.md\npackage x\n")
	broken, err := run(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"DESIGN.md", "docs/GONE.md", "EXPERIMENTS.md"}
	if len(broken) != len(want) {
		t.Fatalf("broken = %v, want exactly %v", broken, want)
	}
	for i, name := range want {
		if !strings.Contains(broken[i], `"`+name+`"`) {
			t.Errorf("broken[%d] = %q, want the %s miss", i, broken[i], name)
		}
	}
}

// Command linkcheck verifies that every relative link in the
// repository's Markdown files resolves to an existing file or directory,
// and that every Markdown file named in a Go comment exists. It is the CI
// guard for the operator docs (docs/ACCOUNTING.md, docs/API.md,
// ROADMAP.md, ...): a renamed file, a typo'd anchor path, or a comment
// citing a document that was never written fails the build instead of
// shipping a dead reference.
//
//	linkcheck [root]
//
// External links (http://, https://, mailto:) and pure in-page anchors
// (#section) are skipped — this tool checks the repository's own file
// graph, not the internet. A link's #fragment is stripped before the
// path check. A *.md name in a Go comment may be relative to the Go
// file's directory or to root; a name after a shell redirection (> x.md)
// is an output file, not a citation, and is skipped. Exit status is 1 if
// any reference is broken, with one line per miss.
package main

import (
	"fmt"
	"go/scanner"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// linkRe matches inline Markdown links [text](target) and
// [text](target "title"). Reference-style definitions ("[x]: target")
// are rare in this repository and external when present, so the inline
// form is the contract linkcheck enforces.
var linkRe = regexp.MustCompile(`\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)

// skippable reports link targets outside the repository file graph.
func skippable(target string) bool {
	return strings.HasPrefix(target, "http://") ||
		strings.HasPrefix(target, "https://") ||
		strings.HasPrefix(target, "mailto:") ||
		strings.HasPrefix(target, "#")
}

// checkFile returns one message per broken relative link in the Markdown
// file at path.
func checkFile(path string) ([]string, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var broken []string
	for _, m := range linkRe.FindAllStringSubmatch(string(body), -1) {
		target := m[1]
		if skippable(target) {
			continue
		}
		// Drop an in-page fragment; what must exist is the file.
		if i := strings.IndexByte(target, '#'); i >= 0 {
			target = target[:i]
		}
		if target == "" {
			continue
		}
		resolved := filepath.Join(filepath.Dir(path), filepath.FromSlash(target))
		if _, err := os.Stat(resolved); err != nil {
			broken = append(broken, fmt.Sprintf("%s: broken link %q (-> %s)", path, m[1], resolved))
		}
	}
	return broken, nil
}

// mdNameRe matches a Markdown file name in comment text, with any
// directory prefix (docs/API.md) and an optional preceding
// shell redirection, which marks an output file rather than a citation.
var mdNameRe = regexp.MustCompile(`(>\s*)?([\w./-]*\w\.md)\b`)

// checkGoComments returns one message per Markdown file named in a comment
// of the Go file at path that exists neither relative to the file's
// directory nor relative to root.
func checkGoComments(root, path string) ([]string, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var s scanner.Scanner
	// Syntax errors are the compiler's business; keep scanning comments.
	s.Init(fset.AddFile(path, -1, len(src)), src, nil, scanner.ScanComments)
	var broken []string
	for {
		pos, tok, lit := s.Scan()
		if tok == token.EOF {
			break
		}
		if tok != token.COMMENT {
			continue
		}
		for _, m := range mdNameRe.FindAllStringSubmatchIndex(lit, -1) {
			if m[2] >= 0 || (m[4] > 0 && lit[m[4]-1] == ':') {
				continue // redirection target, or part of a URL
			}
			name := filepath.FromSlash(lit[m[4]:m[5]])
			if exists(filepath.Join(filepath.Dir(path), name)) || exists(filepath.Join(root, name)) {
				continue
			}
			broken = append(broken, fmt.Sprintf("%s: comment cites missing %q", fset.Position(pos), lit[m[4]:m[5]]))
		}
	}
	return broken, nil
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// run walks root for *.md and *.go files (skipping VCS and vendor trees)
// and checks each, returning every broken-reference message. Go files under
// a hidden directory, such as a build cache of copied sources, are not the
// repository's code and are skipped; Markdown there is still checked.
func run(root string) ([]string, error) {
	var broken []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "vendor", "node_modules":
				return filepath.SkipDir
			}
			return nil
		}
		var msgs []string
		switch ext := strings.ToLower(filepath.Ext(path)); ext {
		case ".md":
			msgs, err = checkFile(path)
		case ".go":
			if !inHiddenDir(root, path) {
				msgs, err = checkGoComments(root, path)
			}
		}
		if err != nil {
			return err
		}
		broken = append(broken, msgs...)
		return nil
	})
	return broken, err
}

// inHiddenDir reports whether a directory between root and path has a
// name starting with a dot.
func inHiddenDir(root, path string) bool {
	rel, err := filepath.Rel(root, filepath.Dir(path))
	if err != nil || rel == "." {
		return false
	}
	for _, part := range strings.Split(rel, string(filepath.Separator)) {
		if strings.HasPrefix(part, ".") {
			return true
		}
	}
	return false
}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	broken, err := run(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "linkcheck: %v\n", err)
		os.Exit(2)
	}
	for _, msg := range broken {
		fmt.Fprintln(os.Stderr, msg)
	}
	if len(broken) > 0 {
		fmt.Fprintf(os.Stderr, "linkcheck: %d broken reference(s)\n", len(broken))
		os.Exit(1)
	}
}

package archtest

import (
	"fmt"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// bannedWords is the table of names the design has removed, one row per
// rule: its pattern must match no identifier, comment or string literal in
// the Go files under its roots (relative to the repository root, searched
// recursively, test files included). A row whose every file counts also
// searches files of other types, line by line. CI runs the same rules as
// grep steps; a grep -w pattern appears here with \b around each
// alternative, which is the same match and keeps the table from tripping
// those greps.
var bannedWords = []struct {
	rule     string
	why      string
	roots    []string
	allFiles bool // the grep had no --include='*.go'
	pattern  string
}{
	{"knob", "settings nothing varies are package constants, not config fields",
		[]string{"causalkv.go", "cmd", "internal"}, false,
		`\bStoreShards\b|\bResolveFlushBudget\b|\bRepBatchMax\b|\bRepRetryTimeout\b|\bStabilizeEvery\b`},
	{"replication identity", "a replicated batch or update is known by its timestamp alone; one ack type serves both streams",
		[]string{"internal", "cmd"}, false,
		`\bnextIn\b|\bNextIn\b|\bSrcPart\b|\bLoRepAck\b|\bTLoRepAck\b`},
	{"one commit watermark", "core orders PUT timestamps, snapshot reads and the replication cut with one lock over its unfinished PUTs",
		[]string{"internal/core"}, true,
		`\bputMu\b|\bdurGate\b|\bdurFlag\b|\brepUpdate\b|\blogInstall\b`},
	{"approximate read", "the timestamp families and CC-LO refuse a trimmed snapshot; they never serve the oldest retained version in its place",
		[]string{"internal/core", "internal/mvstore", "internal/cclo"}, true,
		`ApproxReads|approxReads|approx_reads`},
	{"one-number admission", "the client gate is a token limit; no overload detector or probe",
		[]string{"causalkv.go", "cmd", "internal"}, false,
		`\bAdmitConfig\b|\bShedQueueFrames\b|\bShedFsyncP99\b|\boverloadedNow\b|\blogMu\b|\bfsyncP99\b`},
	{"untunable TCP", "one socket per peer and one greedy writer per socket; no batch policy, flush budget or exported batching API",
		[]string{"causalkv.go", "cmd", "internal"}, false,
		`\bBatchPolicy\b|\bNewTCPOpts\b|\bFlushBudget\b|\bDefaultFlushBudget\b|\bBatchSink\b|\bNewBatcher\b|\bmaxConnPool\b`},
}

// TestBannedWords runs every row of bannedWords over its roots.
func TestBannedWords(t *testing.T) {
	for _, row := range bannedWords {
		t.Run(strings.ReplaceAll(row.rule, " ", "_"), func(t *testing.T) {
			re := regexp.MustCompile(row.pattern)
			for _, root := range row.roots {
				err := filepath.WalkDir(filepath.Join("..", "..", root), func(path string, d fs.DirEntry, err error) error {
					if err != nil || d.IsDir() {
						return err
					}
					isGo := strings.HasSuffix(path, ".go")
					if !isGo && !row.allFiles {
						return nil
					}
					src, err := os.ReadFile(path)
					if err != nil {
						return err
					}
					for _, hit := range matches(path, src, isGo, re) {
						t.Errorf("%s: %s (%s)", hit, row.rule, row.why)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// matches returns "file:line: `text`" for every match of re in src: in a Go
// file, in its identifiers, comments and string and rune literals; in any
// other file, in its lines.
func matches(path string, src []byte, isGo bool, re *regexp.Regexp) []string {
	var out []string
	if !isGo {
		for i, line := range strings.Split(string(src), "\n") {
			for _, m := range re.FindAllString(line, -1) {
				out = append(out, fmt.Sprintf("%s:%d: `%s`", path, i+1, m))
			}
		}
		return out
	}
	fset := token.NewFileSet()
	file := fset.AddFile(path, -1, len(src))
	var s scanner.Scanner
	s.Init(file, src, nil, scanner.ScanComments)
	for {
		pos, tok, lit := s.Scan()
		if tok == token.EOF {
			return out
		}
		switch tok {
		case token.IDENT, token.COMMENT, token.STRING, token.CHAR:
			for _, m := range re.FindAllString(lit, -1) {
				out = append(out, fmt.Sprintf("%s: %s `%s`", fset.Position(pos), tok, m))
			}
		}
	}
}

package archtest

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// scope says which files under a row's roots are searched.
type scope int

const (
	allFiles  scope = iota // every file, whatever its type
	goFiles                // Go files, tests included
	goSources              // Go files, tests excluded
)

// bannedWords is the table of forms the design has removed, one row per
// rule: its pattern must match no line of the files in scope under its
// roots. A root is a file, a glob or a directory (searched recursively),
// relative to the repository root, and must name at least one file, so a
// renamed file fails its row instead of leaving it nothing to search. A
// pattern that matches whole words only writes \b around each alternative,
// which also keeps the rows rooted at internal from matching this table.
var bannedWords = []struct {
	rule    string
	why     string
	roots   []string
	scope   scope
	pattern string
}{
	{"family joint", "the commands reach the families only through internal/cluster/family.go",
		[]string{"cmd/*/main.go"}, allFiles,
		`"repro/internal/(cclo|cops|core)"`},
	{"carrier", "local.go and tcp.go build no envelopes and own no call state; both live in endpoint.go",
		[]string{"internal/transport/local.go", "internal/transport/tcp.go"}, allFiles,
		`wire\.Envelope\{|reqSeq`},
	{"one inbound path", "both carriers hand each inbound request to endpoint.spawn and endpoint.serve; no worker queue, spill counter or shed responder, and no carrier calls the admission gate",
		[]string{"internal/transport/local.go", "internal/transport/tcp.go"}, allFiles,
		`workq|handlerWorkers|shedResponder|HandlerOverflow\.Add|gate\.Submit`},
	{"local flight", "Local sends each frame as its own flight, with no batching engine",
		[]string{"internal/transport/local.go"}, allFiles,
		`Batch(er|Policy)`},
	{"carrier worker", "neither carrier starts a goroutine per inbound frame; both spawn a worker",
		[]string{"internal/transport/local.go", "internal/transport/tcp.go"}, allFiles,
		`go n\.(dispatch|serve)\(`},
	{"CC-LO context", "a session's context is a set of versions; a newer read of a key never replaces the version it holds",
		[]string{"internal/cclo/client.go"}, allFiles,
		`c.deps\[kv.Key\]`},
	{"knob", "settings nothing varies are package constants, not config fields",
		[]string{"causalkv.go", "cmd", "internal"}, goFiles,
		`\bStoreShards\b|\bResolveFlushBudget\b|\bRepBatchMax\b|\bRepRetryTimeout\b|\bStabilizeEvery\b`},
	{"replication identity", "a replicated batch or update is known by its timestamp alone; one ack type serves both streams",
		[]string{"internal", "cmd"}, goFiles,
		`\bnextIn\b|\bNextIn\b|\bSrcPart\b|\bLoRepAck\b|\bTLoRepAck\b`},
	{"one-round replication check", "CC-LO's readers check waits for a replicated update's dependencies; CC-LO sends no dependency check of its own",
		[]string{"internal/cclo"}, goSources,
		`\bWaitDeps\b|\bWaitAll\b|\bDepCheckReq\b`},
	{"positional read", "read responses carry values in request order; no wire encoder writes a read result's key back",
		[]string{"internal/wire/messages.go"}, allFiles,
		`encodeKVs|decodeKVs|(kvs\[i\]|\.KV|\.Val)\.Key\)`},
	{"compact address", "no fixed-width address, session or destination on the wire; addresses go through Buffer.Addr and Reader.Addr, sessions are uvarints, frames carry no Dst",
		[]string{"internal/wire/*.go"}, allFiles,
		`U32\(uint32\((e|m)\.(Src|Dst|Session|Client|Sess)\)\)|(Addr|SessionID)\(r\.U32\(\)\)`},
	{"skeleton", "family.Partition is the only Handle and records every op; no family dispatches Ping or records a histogram or slow-op itself",
		[]string{"internal/core", "internal/cclo", "internal/cops"}, allFiles,
		`func \(s \*Server\) Handle\(|RecordRead\(|[sS]low\.Record\(`},
	{"one client model", "every client is a session on its DC's mux; no family attaches a client at its own address",
		[]string{"internal/core", "internal/cclo", "internal/cops"}, allFiles,
		`func NewClient\(cfg ClientConfig`},
	{"one client arm", "Config.NewClient has no second arm",
		[]string{"internal/cluster/family.go"}, allFiles,
		`mux (==|!=) nil`},
	{"one replication stream", "core's batch cut ships through family.Replicator; core runs no stream, delivery loop or cursor persistence of its own",
		[]string{"internal/core"}, allFiles,
		`\brepStream\b|\breplicator\b|family\.Deliver\(|\.AppendCursor\(`},
	{"one commit watermark", "core orders PUT timestamps, snapshot reads and the replication cut with one lock over its unfinished PUTs",
		[]string{"internal/core"}, allFiles,
		`\bputMu\b|\bdurGate\b|\bdurFlag\b|\brepUpdate\b|\blogInstall\b`},
	{"approximate read", "the timestamp families and CC-LO refuse a trimmed snapshot; they never serve the oldest retained version in its place",
		[]string{"internal/core", "internal/mvstore", "internal/cclo"}, allFiles,
		`ApproxReads|approxReads|approx_reads`},
	{"one-number admission", "the client gate is a token limit; no overload detector or probe",
		[]string{"causalkv.go", "cmd", "internal"}, goFiles,
		`\bAdmitConfig\b|\bShedQueueFrames\b|\bShedFsyncP99\b|\boverloadedNow\b|\blogMu\b|\bfsyncP99\b`},
	{"untunable TCP", "one socket per peer and one greedy writer per socket; no batch policy, flush budget or exported batching API",
		[]string{"causalkv.go", "cmd", "internal"}, goFiles,
		`\bBatchPolicy\b|\bNewTCPOpts\b|\bFlushBudget\b|\bDefaultFlushBudget\b|\bBatchSink\b|\bNewBatcher\b|\bmaxConnPool\b`},
	{"mux socket pool", "a mux holds one socket per server; no command pools them",
		[]string{"cmd"}, allFiles,
		`sockPool|socket-pool`},
	{"decoded messages are not pooled", "a decoded message belongs to whoever receives it; no message type is pooled or reset for reuse (only frame buffers are pooled)",
		[]string{"internal/wire", "internal/transport"}, goFiles,
		`\bResettable\b|\bmsgPools\b|\bwire\.Pool\(|^func Pool\(|\bPool\(T\w*\)|\) Reset\(\)`},
}

// TestBannedWords runs every row of bannedWords over its roots.
func TestBannedWords(t *testing.T) {
	for _, row := range bannedWords {
		t.Run(strings.ReplaceAll(row.rule, " ", "_"), func(t *testing.T) {
			re := regexp.MustCompile(row.pattern)
			for _, root := range row.roots {
				paths, err := filepath.Glob(filepath.Join(repoRoot, root))
				if err != nil {
					t.Fatal(err)
				}
				if len(paths) == 0 {
					t.Errorf("root %s names no file", root)
				}
				for _, p := range paths {
					if err := filepath.WalkDir(p, func(path string, d fs.DirEntry, err error) error {
						if err != nil || d.IsDir() || !row.scope.has(path) {
							return err
						}
						src, err := os.ReadFile(path)
						if err != nil {
							return err
						}
						for _, hit := range matches(path, src, re) {
							t.Errorf("%s: %s (%s)", hit, row.rule, row.why)
						}
						return nil
					}); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
}

// has reports whether the file at path is in scope s.
func (s scope) has(path string) bool {
	switch s {
	case goFiles:
		return strings.HasSuffix(path, ".go")
	case goSources:
		return strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go")
	}
	return true
}

// matches returns "file:line: `text`" for every match of re in a line of
// src, as grep would report it.
func matches(path string, src []byte, re *regexp.Regexp) []string {
	var out []string
	for i, line := range strings.Split(string(src), "\n") {
		for _, m := range re.FindAllString(line, -1) {
			out = append(out, fmt.Sprintf("%s:%d: `%s`", path, i+1, m))
		}
	}
	return out
}

// Package lint is the repository's self-hosted static-analysis suite: the
// invariants every scale claim rests on, turned into machine-checked rules.
//
// The engine's headline guarantee — byte-identical recommendations across
// sequential/parallel, cube-on/off, sharded/unsharded, eager/mapped, and
// crash-recovered execution — survives only if the code keeps certain
// disciplines: map iteration never orders wire output, the core never reads
// the clock, the wire packages stay vendorable, and OS-backed handles get
// closed. Tests catch violations only when they happen to randomize the
// right way; this package catches them at the syntax level, on every run.
//
// The framework is standard-library only (go/parser, go/ast, go/token — the
// module has no dependencies and this tool is not the reason to grow one).
// Load parses every Go file under the repository root into a Repo; Run
// executes a set of Analyzer values over it and returns position-sorted
// Findings. There is no type checker: analyzers resolve types syntactically
// and are written to fail open (an unrecognized construct goes unflagged)
// with suppression for the rare false positive:
//
//	//lint:ignore <analyzer> <reason>
//
// on the flagged line or the line above. The reason is mandatory, and a
// malformed directive is itself a finding — a typoed suppression can never
// silently mask nothing.
//
// The shipped analyzers:
//
//   - boundaries: the public-API import rules (examples/ and
//     reptile/{api,client} vs internal/, stdlib-only wire packages,
//     internal/core free of internal/obs, internal/wal reachable only
//     through internal/ingest, unsafe importable only by internal/store).
//   - determinism: unsorted map iteration feeding appends or encoders in
//     wire-output packages; wall-clock and math/rand use in the engine core.
//   - closecheck: file/WAL/mmap/dataset constructor results must be closed
//     or escape.
//
// cmd/reptile-lint is the CLI; `make lint` and CI run it with all analyzers.
// To add an analyzer: implement the three-method Analyzer interface in a new
// file here, register it in All(), and add a deliberately-broken fixture
// tree under testdata/src/ with a golden-findings test.
package lint

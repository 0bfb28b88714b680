// Package lint holds the coding rules the engine's byte-identical-output
// guarantee rests on, as tests over the parsed repository.
//
// Recommendations must stay byte-identical across sequential/parallel,
// cube-on/off, sharded/unsharded, eager/mapped, and crash-recovered
// execution. That survives only if the code keeps certain disciplines: map
// iteration never orders wire output, the engine core never reads the clock,
// the wire packages stay vendorable, and OS-backed handles get closed.
//
// Load parses every Go file under a module root into a Repo (go/parser only:
// the module has no dependencies). Over it:
//
//   - MapRanges flags unsorted map iteration feeding appends or encoders in
//     the wire-output packages.
//   - CloseCheck flags file/WAL/mmap/dataset constructor results that are
//     neither closed nor handed off.
//   - TestImportRules, in this package's tests, holds the import rules as a
//     table: examples/ and reptile/{api,client} vs internal/, internal/core
//     free of internal/obs, internal/wal reachable only through
//     internal/ingest, unsafe only in internal/store, and neither the clock
//     nor math/rand in the engine core.
//
// The checks resolve types syntactically and fail open: an unrecognized
// construct goes unflagged. TestRepoHeadClean and TestImportRules hold the
// repository to them under `go test ./...` and `make lint`; each check's
// fixture tree under testdata/src/ has a golden test.
package lint

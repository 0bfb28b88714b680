// Fixture: the serving layer reaches the log only through internal/ingest.
package server

import "repro/internal/wal" // want: the log has one owner

var L = wal.Open

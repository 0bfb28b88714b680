// Fixture: the SDK reaches the log only through internal/ingest.
package reptile

import "repro/internal/wal" // want: the log has one owner

var L = wal.Open

// Fixture: internal code must not import the facade or the client, nor —
// outside internal/store — unsafe.
package foo

import (
	"repro/reptile"        // want: facade import
	"repro/reptile/api"    // allowed: the server marshals the wire structs
	"repro/reptile/client" // want: client import
	_ "unsafe"             // want: only internal/store may import unsafe
)

var F = reptile.New(client.New(api.Version))

// Fixture: internal/store is the one package that may import unsafe.
package store

import "unsafe"

var Size = unsafe.Sizeof(uint32(0))

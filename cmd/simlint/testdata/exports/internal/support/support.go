// Package support is test support: only test files import it.
package support

import "fixture/internal/core"

// Helper is exported for tests and is not checked.
func Helper() { core.SupportOnly() }

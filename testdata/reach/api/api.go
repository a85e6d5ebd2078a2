// Package api is the fixture's public package: what its exported API
// exposes is live.
package api

import "fixture/internal/store"

// Configure takes a config whose fields callers set, so none of them
// is reported.
func Configure(c store.PublicConfig) int { return c.Depth }

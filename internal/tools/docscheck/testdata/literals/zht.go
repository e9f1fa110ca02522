// Package zht names core.Config as its own Config.
package zht

import "zht/internal/core"

// Config is core.Config.
type Config = core.Config

// Persistent sets DataDir through an unqualified literal.
func Persistent(dir string) Config { return Config{DataDir: dir} }

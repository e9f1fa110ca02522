package main

import "zht/internal/core"

var _ = core.Config{TestOnly: 1}

// Command srv sets Replicas.
package main

import "zht/internal/core"

func main() { _ = core.Config{Replicas: 1} }

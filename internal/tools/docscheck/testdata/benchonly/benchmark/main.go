// Command benchmark sets Path.
package main

import "zht/internal/novoht"

func main() { _ = novoht.Options{Path: "p.log"} }

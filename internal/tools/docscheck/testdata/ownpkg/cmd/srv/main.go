// Command srv sets Cooldown.
package main

import "zht/internal/gossip"

func main() { _ = gossip.Options{Cooldown: 25} }

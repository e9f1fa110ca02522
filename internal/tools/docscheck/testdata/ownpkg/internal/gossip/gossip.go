// Package gossip declares the knob struct the rule checks.
package gossip

// Options carries a knob a binary sets and one only its own package
// sets.
type Options struct {
	Cooldown    int
	MaxFallback int
}

// Defaults fills MaxFallback; a setter in the declaring package does
// not count.
func Defaults() Options { return Options{MaxFallback: 3} }

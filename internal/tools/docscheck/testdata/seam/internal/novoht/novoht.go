// Package novoht declares the knob struct the rule checks.
package novoht

// Options carries a knob a binary sets and a seam only tests set.
type Options struct {
	Path  string
	Fault func() error
}

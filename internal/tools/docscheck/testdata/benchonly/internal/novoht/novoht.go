// Package novoht declares the knob struct the rule checks.
package novoht

// Options carries one knob, set only by the benchmark.
type Options struct {
	Path string
}

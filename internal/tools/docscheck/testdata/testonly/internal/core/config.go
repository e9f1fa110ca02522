// Package core declares the knob struct the rule checks.
package core

// Config carries one knob a binary sets and one only a test sets.
type Config struct {
	Replicas int
	TestOnly int
}

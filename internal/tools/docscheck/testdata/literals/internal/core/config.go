// Package core declares the knob struct the rule checks.
package core

// Config carries knobs set in each way the rule counts.
type Config struct {
	NumPartitions int
	Replicas      int
	DataDir       string
	OpRetries     int
}

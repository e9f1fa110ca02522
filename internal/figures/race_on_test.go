//go:build race

package figures

// raceEnabled reports whether this binary was built with -race; the
// instrumentation slows the in-memory stores far more than the
// disk-bound ones, so latency-ordering assertions skip themselves then.
const raceEnabled = true

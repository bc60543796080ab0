//go:build race

// Package israce reports whether the binary was built with -race. The
// race detector's shadow instrumentation allocates, so tests that bound
// steady-state allocations skip under it.
package israce

// Enabled reports that this binary was built with -race.
const Enabled = true

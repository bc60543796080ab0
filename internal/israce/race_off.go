//go:build !race

package israce

// Enabled reports that this binary was built with -race.
const Enabled = false

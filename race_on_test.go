//go:build race

package dpspark

// raceEnabled lets TestAllocBudget skip under the race detector, which
// changes what a run allocates.
const raceEnabled = true

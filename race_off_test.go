//go:build !race

package dpspark

const raceEnabled = false

//go:build race

package kernels

// raceEnabled lets the exhaustive serial bit-identity sweeps drop their
// two largest sizes under the race detector, which slows their scalar
// reference loops tenfold and has no concurrency to inspect in them.
const raceEnabled = true

//go:build race

package msg

// raceEnabled is set when the tests run under the race detector, whose
// instrumentation allocates on its own and so voids byte-level allocation
// budgets.
const raceEnabled = true

//go:build race

package server

// raceEnabled reports a race-detector build. Allocation budgets skip
// there: race builds drop a quarter of sync.Pool.Puts by design, so a
// pooled path allocates as if unpooled one time in four.
const raceEnabled = true

//go:build race

package tracex

// raceEnabled reports a race-detector build, under which sync.Pool drops
// items at random, so fmt's allocation counts vary from run to run.
const raceEnabled = true

//go:build !race

package tracex

const raceEnabled = false

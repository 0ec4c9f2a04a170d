//go:build race

package ung

// raceEnabled reports a -race build. The race detector makes sync.Pool drop
// a share of its items on purpose, so allocation counts are not stable.
const raceEnabled = true

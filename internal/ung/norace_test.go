//go:build !race

package ung

const raceEnabled = false

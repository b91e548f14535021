//go:build race

package main

// raceEnabled skips the reproduction gate: under the race detector the full
// run takes about ten times as long.
const raceEnabled = true

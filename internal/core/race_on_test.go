//go:build race

package core

// raceEnabled gates the allocation guards: the race detector instruments
// allocations, so their counts mean nothing under -race.
const raceEnabled = true

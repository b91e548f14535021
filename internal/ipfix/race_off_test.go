//go:build !race

package ipfix

const raceEnabled = false

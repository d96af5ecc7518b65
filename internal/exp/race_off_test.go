//go:build !race

package exp

const raceOn = false

//go:build !race

package pkt

const raceOn = false

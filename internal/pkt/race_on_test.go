//go:build race

package pkt

// raceOn reports a -race build, under which sync.Pool drops a quarter
// of its Puts on purpose.
const raceOn = true

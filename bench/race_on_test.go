//go:build race

package main

// raceOn reports a -race build, whose instrumentation takes most CPU
// profile samples for the runtime.
const raceOn = true

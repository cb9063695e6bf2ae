//go:build race

package udpnet

// raceEnabled reports whether the test binary runs under the race detector.
const raceEnabled = true

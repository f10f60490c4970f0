//go:build !race

package netdht

// raceDetector reports a -race build (race_test.go).
const raceDetector = false

//go:build race

package netdht

// raceDetector reports a -race build, under which sync.Pool drops what is
// put in it at random, so a path through a pool allocates now and then.
const raceDetector = true

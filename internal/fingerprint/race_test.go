//go:build race

package fingerprint_test

// raceEnabled reports a -race build, whose sync.Pool drops objects at
// random: allocation counts mean nothing there.
const raceEnabled = true

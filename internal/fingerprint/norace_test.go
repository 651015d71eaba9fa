//go:build !race

package fingerprint_test

const raceEnabled = false

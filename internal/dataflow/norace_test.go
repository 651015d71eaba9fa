//go:build !race

package dataflow

const raceEnabled = false

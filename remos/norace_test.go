//go:build !race

package remos_test

const raceEnabled = false

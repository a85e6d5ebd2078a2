//go:build race

package snmp

// raceEnabled reports a -race build, whose sync.Pool drops entries on
// purpose, so allocation counts that rely on a pool read higher.
const raceEnabled = true

package replica

import (
	"time"

	"repro/internal/collector"
)

// store is one immutable view of the fed collector state, published
// through Replica.cur (an atomic.Pointer, the same lock-free discipline
// as the Modeler's topology snapshots). Query goroutines Load it and
// read freely; the feed goroutine never mutates a published store —
// applying a delta builds a successor around collector.State.Extend,
// which copies the window headers and appends only to the windows that
// received samples. The feed goroutine is the windows' single writer; it
// appends at the tip, and a delta retried from an older store (one that
// failed half-way) copies at most one chunk per window instead.
type store struct {
	*collector.State
	epoch uint64 // collector DataVersion this state reflects
	term  uint64 // HA lease term of the feeding leader (0 = no HA)

	// feedNow is the collector's virtual clock at the update that built
	// this store; appliedWall is the local wall clock at apply time.
	// Between updates (and across partitions) the replica extrapolates
	// the collector clock at one virtual second per wall second, so
	// reported data ages keep growing honestly while the feed is dark.
	feedNow     float64
	appliedWall time.Time
}

// virtualNow extrapolates the collector's clock to the local wall time.
func (st *store) virtualNow(wall time.Time) float64 {
	return st.feedNow + wall.Sub(st.appliedWall).Seconds()
}

// staleness is how long ago the state was applied, in wall time.
func (st *store) staleness(wall time.Time) time.Duration {
	return wall.Sub(st.appliedWall)
}

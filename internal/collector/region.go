package collector

// Federation wire surface: the "region-summary" watch kind ships a
// compact, epoch-stamped digest of one region's state to federating
// peers. It is the paper's hierarchical-query idea made concrete: a
// regional collector keeps full intra-region detail for itself and
// exports only border nodes plus per-region-pair aggregates upward, so
// a federation over R regions moves O(hosts + borders + R) state per
// round instead of the full measurement stream the "feed" kind carries.
//
// The summary rides the multiplexed watch plane unchanged — bounded
// per-subscription queues, dense Seq numbers, Overflowed marks, stalled
// -subscriber eviction, terminal Final on drain — and is evaluated per
// source epoch like every other kind. Consumers (internal/federation)
// keep the last good summary per region and age it honestly: a region
// gone dark keeps answering from its last summary with a growing
// DataAge, never silently fresh.

// WatchRegionSummary is the federation watch kind (WatchRequest.Kind):
// one RegionSummary per source epoch. Only sources implementing
// RegionSummarySource accept it.
const WatchRegionSummary = "region-summary"

// RegionHost is one compute node in a region summary: enough for a
// federated Modeler to answer "what can this host do" without the
// region's full topology.
type RegionHost struct {
	ID           string
	Power        float64 // compute power (work units/s)
	MemoryBytes  float64
	AccessBps    float64 // bottleneck capacity of the host's access link(s)
	AvailableBps float64 // measured available bandwidth on the access link
}

// RegionBorder is one border router — a node with at least one link
// leaving the region. InteriorBps aggregates the capacity from the
// border node into the region's interior, bounding how much traffic
// the region can absorb through it.
type RegionBorder struct {
	ID          string
	InteriorBps float64
}

// RegionPair summarizes the cut between this region and one peer: the
// physical cross-region links collapse to aggregate figures the way
// §4.3's logical topologies collapse unshared interiors.
type RegionPair struct {
	Peer         string  // the other region's name
	Links        int     // physical links in the cut
	CapacityBps  float64 // aggregate capacity across the cut
	AvailableBps float64 // aggregate measured available bandwidth
	HopCount     int     // representative hop count across the cut
	LatencySec   float64 // representative one-way latency across the cut
}

// RegionSummary is the epoch-stamped digest one region exports.
type RegionSummary struct {
	// Region is the exporting region's name.
	Region string
	// Epoch is the exporting source's DataVersion at generation time.
	Epoch uint64
	// Term is the exporter's HA lease term (0 without HA); consumers
	// fence exactly like feed consumers do.
	Term uint64
	// GeneratedAt is the exporter's virtual clock at generation.
	// Consumers compute staleness as (their now − GeneratedAt) plus
	// MaxDataAge, so a summary's age degrades honestly end to end.
	GeneratedAt float64
	// MaxDataAge is the worst data age across the summarized channels
	// at generation time: how stale the freshest possible answer
	// derived from this summary already was at the source.
	MaxDataAge float64

	Hosts   []RegionHost
	Borders []RegionBorder
	Pairs   []RegionPair
}

// RegionSummarySource is a Source that can digest itself into a
// RegionSummary. Implemented by federation.Region; servers refuse
// WatchRegionSummary subscriptions on sources that lack it.
type RegionSummarySource interface {
	// RegionName returns the region this source owns.
	RegionName() string
	// RegionSummary digests the region's current state. Implementations
	// must emit deterministic field order (sorted hosts/borders/pairs)
	// so two pulls at the same epoch are byte-identical.
	RegionSummary() (*RegionSummary, error)
}

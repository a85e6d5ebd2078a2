package collector

// Stream-multiplexed framing for the TCP query protocol. The original
// protocol was strict lockstep: one request frame, one response frame,
// one connection per outstanding call. Every frame is now a muxFrame
// envelope carrying a client-chosen stream ID, which buys two things on
// the same single connection:
//
//   - pipelining: a client may have any number of ordinary calls in
//     flight at once; the server answers each on its own stream in
//     whatever order the handlers finish, and
//   - long-lived subscription streams (the "watch" op, watch.go): a
//     stream that stays open after its subscribe ack and carries
//     server-pushed WatchUpdate frames until cancelled, evicted, or
//     drained with a terminal Final update. The replication feed
//     (feed.go) is such a stream whose updates carry FeedPayload
//     snapshots/deltas for stateless read replicas.
//
// One envelope is one length-prefixed, stateless frame (frame.go) in
// the binary layout of codec.go, so the bounded-allocation and
// abort-mid-frame properties are those of the frame. Stream IDs are
// allocated by the client, monotonically per connection; the server
// only ever echoes them back.

// muxFrame kinds. Exactly one of Req/Resp/Update is set, matching Kind.
const (
	mfRequest  = 1 // client -> server: open a stream with one request
	mfResponse = 2 // server -> client: the stream's (single) response
	mfUpdate   = 3 // server -> client: one watch delta on a live stream
	mfCancel   = 4 // client -> server: tear down a watch stream
)

// muxFrame is the wire envelope: every frame on a connection is one of
// these. An unset pointer field costs one flag bit on the wire, so the
// envelope adds three or four bytes to the body it carries.
type muxFrame struct {
	Stream uint64
	Kind   int
	Req    *request
	Resp   *response
	Update *WatchUpdate
}

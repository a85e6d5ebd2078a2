package snmp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Transport moves one request to one agent and returns its response.
// Implementations: InProc (virtual-time experiments) and UDP (daemon
// mode, integration tests).
type Transport interface {
	// RoundTrip sends an encoded request to the named agent address and
	// returns the encoded response, which the caller owns. req is the
	// caller's buffer, reused once RoundTrip returns (Client.Do), so an
	// implementation must not keep it.
	RoundTrip(addr string, req []byte) ([]byte, error)
}

// InProcRegistry is an in-process transport: agents register under
// string addresses; RoundTrip runs the full encode/decode path without a
// socket, so collector polls stay inside virtual time.
type InProcRegistry struct {
	mu     sync.RWMutex
	agents map[string]*Agent
}

// NewInProcRegistry returns an empty registry.
func NewInProcRegistry() *InProcRegistry {
	return &InProcRegistry{agents: make(map[string]*Agent)}
}

// Register binds an agent to an address.
func (r *InProcRegistry) Register(addr string, a *Agent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.agents[addr] = a
}

// RoundTrip implements Transport.
func (r *InProcRegistry) RoundTrip(addr string, req []byte) ([]byte, error) {
	r.mu.RLock()
	a := r.agents[addr]
	r.mu.RUnlock()
	if a == nil {
		return nil, fmt.Errorf("snmp: no agent at %q", addr)
	}
	resp := a.HandleBytes(req)
	if resp == nil {
		return nil, fmt.Errorf("snmp: agent %q dropped request", addr)
	}
	return resp, nil
}

// UDPTransport sends requests over UDP with timeout and retry. The zero
// value is literal: Timeout 0 means no I/O deadline and Retries 0 means
// a single attempt. Use NewUDPTransport for sensible defaults.
type UDPTransport struct {
	Timeout time.Duration // per attempt; 0 = no deadline
	Retries int           // attempts beyond the first; 0 = one attempt
	Backoff time.Duration // pause between attempts; 0 = none
}

// DefaultUDPTimeout, DefaultUDPRetries, and DefaultUDPBackoff are the
// NewUDPTransport defaults.
const (
	DefaultUDPTimeout = 500 * time.Millisecond
	DefaultUDPRetries = 2
	DefaultUDPBackoff = 100 * time.Millisecond
)

// NewUDPTransport returns a transport with the default timeout, retry
// count, and inter-attempt backoff.
//
//reach:keep the SNMP substitute's UDP transport (DESIGN §2), which TestUDPTransport and TestGetBulkOverUDP run over real sockets
func NewUDPTransport() *UDPTransport {
	return &UDPTransport{
		Timeout: DefaultUDPTimeout,
		Retries: DefaultUDPRetries,
		Backoff: DefaultUDPBackoff,
	}
}

// udpBufPool holds the datagram-sized receive buffers of RoundTrip, one
// per attempt in flight; the response is copied out at its real size.
var udpBufPool = sync.Pool{New: func() any { b := make([]byte, 65536); return &b }}

// RoundTrip implements Transport. One socket is dialed per call and
// reused across retry attempts; dial errors count as failed attempts
// (they can be as transient as packet loss), so they retry too.
func (t *UDPTransport) RoundTrip(addr string, req []byte) ([]byte, error) {
	var conn net.Conn
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	attempt := func() ([]byte, error) {
		if conn == nil {
			c, err := net.Dial("udp", addr)
			if err != nil {
				return nil, err
			}
			conn = c
		}
		if t.Timeout > 0 {
			if err := conn.SetDeadline(time.Now().Add(t.Timeout)); err != nil {
				return nil, err
			}
		}
		if _, err := conn.Write(req); err != nil {
			return nil, err
		}
		bp := udpBufPool.Get().(*[]byte)
		defer udpBufPool.Put(bp)
		n, err := conn.Read(*bp)
		if err != nil {
			return nil, err
		}
		return append([]byte(nil), (*bp)[:n]...), nil
	}
	var lastErr error
	for i := 0; i <= t.Retries; i++ {
		if i > 0 && t.Backoff > 0 {
			time.Sleep(t.Backoff)
		}
		resp, err := attempt()
		if err == nil {
			return resp, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("snmp: %d attempts failed: %w", t.Retries+1, lastErr)
}

// Client issues Get/GetNext/Walk requests through a Transport. It is
// safe for concurrent use.
type Client struct {
	Transport Transport
	Community string

	nextID atomic.Uint32
}

// NewClient creates a client.
func NewClient(tr Transport, community string) *Client {
	return &Client{Transport: tr, Community: community}
}

func (c *Client) id() uint32 { return c.nextID.Add(1) }

func (c *Client) roundTrip(addr string, req *Message) (*Message, error) {
	raw, err := Encode(req)
	if err != nil {
		return nil, err
	}
	rawResp, err := c.Transport.RoundTrip(addr, raw)
	if err != nil {
		return nil, err
	}
	resp, err := Decode(rawResp)
	if err != nil {
		return nil, err
	}
	if resp.RequestID != req.RequestID {
		return nil, fmt.Errorf("snmp: response ID %d != request ID %d", resp.RequestID, req.RequestID)
	}
	if resp.Type != PDUResponse {
		return nil, fmt.Errorf("snmp: unexpected PDU type %v", resp.Type)
	}
	return resp, nil
}

// GetRequest is a GET encoded once, to be sent any number of times by
// Do: a poll plan replays the same OIDs every round. It is immutable,
// so one may be sent from several goroutines at once.
type GetRequest struct {
	raw []byte // the encoded request; Do sends a copy with a fresh ID
	n   int    // varbinds asked
}

// PrepareGet encodes a GET of oids under the client's community.
func (c *Client) PrepareGet(oids ...OID) (*GetRequest, error) {
	vbs := make([]VarBind, len(oids))
	for i, o := range oids {
		vbs[i] = VarBind{OID: o, Value: Null()}
	}
	raw, err := Encode(&Message{Community: c.Community, Type: PDUGet, VarBinds: vbs})
	if err != nil {
		return nil, err
	}
	return &GetRequest{raw: raw, n: len(oids)}, nil
}

// Len returns how many OIDs r asks.
func (r *GetRequest) Len() int { return r.n }

// Do sends r to addr and decodes the answer's values into vals[:r.Len()],
// in the order asked. r's bytes are copied into *wire, a caller-owned
// buffer reused from call to call, and the request ID is patched there.
// The errors are Get's; on an error vals holds no meaning.
func (c *Client) Do(addr string, r *GetRequest, wire *[]byte, vals []Value) error {
	id := c.id()
	w := append((*wire)[:0], r.raw...)
	*wire = w
	binary.BigEndian.PutUint32(w[idOffset+int(w[3]):], id) // w[3]: the community length
	resp, err := c.Transport.RoundTrip(addr, w)
	if err != nil {
		return err
	}
	return r.answer(resp, id, vals[:r.n])
}

// answer checks resp against r in one pass and decodes its values into
// vals. Each answer's OID is compared with the asked OID's bytes, found
// by walking r's own varbinds in step, before it is parsed: an OID
// equal to the one asked is skipped whole, and only another is parsed,
// so no OID is built. A malformed frame is a plain error; then come a
// wrong request ID or PDU type, a NoSuchName or other error status, a
// varbind count other than asked and an OID other than asked at some
// position, in that order.
func (r *GetRequest) answer(resp []byte, id uint32, vals []Value) error {
	d := decoder{buf: resp}
	h, err := d.header()
	if err != nil {
		return err
	}
	q := headerLen + int(r.raw[3]) // r's next varbind; raw[3] is its community length
	bad, badAt, badQ := -1, 0, 0
	for i := 0; i < h.count; i++ {
		at, askedAt := d.off, q
		var asked []byte
		if i < r.n {
			asked = r.raw[q : q+1+4*int(r.raw[q])]
			q += len(asked) + 1 // and the asked value's Null kind byte
		}
		if i < r.n && bytes.HasPrefix(resp[at:], asked) {
			d.off += len(asked) // Encode wrote asked: a well-formed OID
		} else if _, err := d.oid(); err != nil {
			return err
		} else if i < r.n && bad < 0 {
			bad, badAt, badQ = i, at, askedAt
		}
		v, err := d.value()
		if err != nil {
			return err
		}
		if i < r.n {
			vals[i] = v
		}
	}
	if d.off != len(resp) {
		return fmt.Errorf("snmp: %d trailing bytes", len(resp)-d.off)
	}
	if h.id != id {
		return fmt.Errorf("snmp: response ID %d != request ID %d", h.id, id)
	}
	if h.typ != PDUResponse {
		return fmt.Errorf("snmp: unexpected PDU type %v", h.typ)
	}
	switch h.status {
	case NoError:
	case NoSuchName:
		return fmt.Errorf("%w at index %d", ErrNoSuchName, h.index)
	default:
		return fmt.Errorf("snmp: %v at index %d", h.status, h.index)
	}
	if h.count != r.n {
		return fmt.Errorf("%w: %d varbinds for %d OIDs", ErrBadResponse, h.count, r.n)
	}
	if bad >= 0 {
		return fmt.Errorf("%w: %v at position %d, asked %v", ErrBadResponse, oidAt(resp[badAt:]), bad+1, oidAt(r.raw[badQ:]))
	}
	return nil
}

// oidAt decodes the wire OID at the start of b, which has been
// bounds-checked already; only error messages build OIDs from answers.
func oidAt(b []byte) OID {
	o := make(OID, b[0])
	for j := range o {
		o[j] = binary.BigEndian.Uint32(b[1+4*j:])
	}
	return o
}

// Get fetches exact OIDs and returns one varbind per OID asked, in the
// order asked: callers may index the result by request position. The
// varbinds carry the caller's OIDs, which the answer was checked
// against. A NoSuchName answer is an error wrapping ErrNoSuchName with
// the failing index; a NoError answer of any other shape — fewer or
// more varbinds, or a different OID at some position — is
// ErrBadResponse. Get is PrepareGet and then Do.
func (c *Client) Get(addr string, oids ...OID) ([]VarBind, error) {
	r, err := c.PrepareGet(oids...)
	if err != nil {
		return nil, err
	}
	vals := make([]Value, len(oids))
	// r is Get's own, so its bytes can be the wire buffer.
	if err := c.Do(addr, r, &r.raw, vals); err != nil {
		return nil, err
	}
	vbs := make([]VarBind, len(oids))
	for i, o := range oids {
		vbs[i] = VarBind{OID: o, Value: vals[i]}
	}
	return vbs, nil
}

// ErrNoSuchName reports that an OID has no successor (end of MIB) or
// does not exist.
var ErrNoSuchName = errors.New("snmp: noSuchName")

// ErrBadResponse reports a Get response that does not answer the OIDs
// asked, position by position — a misbehaving agent or a corrupted
// datagram that still decoded.
var ErrBadResponse = errors.New("snmp: response does not match request")

// GetNext fetches the lexicographic successor of one OID.
func (c *Client) GetNext(addr string, oid OID) (VarBind, error) {
	req := &Message{
		Community: c.Community, Type: PDUGetNext, RequestID: c.id(),
		VarBinds: []VarBind{{OID: oid, Value: Null()}},
	}
	resp, err := c.roundTrip(addr, req)
	if err != nil {
		return VarBind{}, err
	}
	if resp.Error == NoSuchName {
		return VarBind{}, ErrNoSuchName
	}
	if resp.Error != NoError {
		return VarBind{}, fmt.Errorf("snmp: %v", resp.Error)
	}
	if len(resp.VarBinds) != 1 {
		return VarBind{}, fmt.Errorf("snmp: %d varbinds in GetNext response", len(resp.VarBinds))
	}
	return resp.VarBinds[0], nil
}

// GetBulk fetches up to maxRepetitions successors of oid in one round
// trip. A zero maxRepetitions uses the agent's default (10).
func (c *Client) GetBulk(addr string, oid OID, maxRepetitions int) ([]VarBind, error) {
	req := &Message{
		Community: c.Community, Type: PDUGetBulk, RequestID: c.id(),
		ErrorIndex: uint32(maxRepetitions),
		VarBinds:   []VarBind{{OID: oid, Value: Null()}},
	}
	resp, err := c.roundTrip(addr, req)
	if err != nil {
		return nil, err
	}
	if resp.Error != NoError {
		return nil, fmt.Errorf("snmp: %v", resp.Error)
	}
	return resp.VarBinds, nil
}

// BulkWalk retrieves every entry under prefix using GetBulk batches —
// the same result as Walk with ~maxRepetitions× fewer round trips.
func (c *Client) BulkWalk(addr string, prefix OID, maxRepetitions int) ([]VarBind, error) {
	if maxRepetitions <= 0 {
		maxRepetitions = 10
	}
	var out []VarBind
	cur := prefix.Clone()
	for {
		vbs, err := c.GetBulk(addr, cur, maxRepetitions)
		if err != nil {
			return out, err
		}
		if len(vbs) == 0 {
			return out, nil // end of MIB
		}
		for _, vb := range vbs {
			if !vb.OID.HasPrefix(prefix) {
				return out, nil
			}
			out = append(out, vb)
			if len(out) > maxVarBinds {
				return out, fmt.Errorf("snmp: bulk walk under %v exceeded %d entries", prefix, maxVarBinds)
			}
		}
		cur = vbs[len(vbs)-1].OID
	}
}

// Walk retrieves every entry under prefix via repeated GetNext — how the
// collector discovers interface tables.
//
//reach:keep the GETNEXT walk of the SNMP substitute (DESIGN §2); TestBulkWalkMatchesWalk holds GETBULK against it
func (c *Client) Walk(addr string, prefix OID) ([]VarBind, error) {
	var out []VarBind
	cur := prefix.Clone()
	for {
		vb, err := c.GetNext(addr, cur)
		if err != nil {
			if errors.Is(err, ErrNoSuchName) {
				// End of MIB.
				return out, nil
			}
			return out, err
		}
		if !vb.OID.HasPrefix(prefix) {
			return out, nil
		}
		out = append(out, vb)
		cur = vb.OID
		if len(out) > maxVarBinds {
			return out, fmt.Errorf("snmp: walk under %v exceeded %d entries", prefix, maxVarBinds)
		}
	}
}

package snmp

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Transport moves one request to one agent and returns its response.
// Implementations: InProc (virtual-time experiments) and UDP (daemon
// mode, integration tests).
type Transport interface {
	// RoundTrip sends an encoded request to the named agent address and
	// returns the encoded response.
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

// Client issues Get/GetNext/Walk requests through a Transport.
type Client struct {
	Transport Transport
	Community string

	mu     sync.Mutex
	nextID uint32
}

// NewClient creates a client.
func NewClient(tr Transport, community string) *Client {
	return &Client{Transport: tr, Community: community}
}

func (c *Client) id() uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	return c.nextID
}

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

// Get fetches exact OIDs and returns one varbind per OID asked, in the
// order asked: callers may index the result by request position. A
// NoSuchName answer is an error wrapping ErrNoSuchName with the failing
// index; a NoError answer of any other shape — fewer or more varbinds,
// or a different OID at some position — is ErrBadResponse.
func (c *Client) Get(addr string, oids ...OID) ([]VarBind, error) {
	req := &Message{Community: c.Community, Type: PDUGet, RequestID: c.id(),
		VarBinds: make([]VarBind, len(oids))}
	for i, o := range oids {
		req.VarBinds[i] = VarBind{OID: o, Value: Null()}
	}
	resp, err := c.roundTrip(addr, req)
	if err != nil {
		return nil, err
	}
	switch resp.Error {
	case NoError:
	case NoSuchName:
		return nil, fmt.Errorf("%w at index %d", ErrNoSuchName, resp.ErrorIndex)
	default:
		return nil, fmt.Errorf("snmp: %v at index %d", resp.Error, resp.ErrorIndex)
	}
	if len(resp.VarBinds) != len(oids) {
		return nil, fmt.Errorf("%w: %d varbinds for %d OIDs", ErrBadResponse, len(resp.VarBinds), len(oids))
	}
	for i, o := range oids {
		if resp.VarBinds[i].OID.Cmp(o) != 0 {
			return nil, fmt.Errorf("%w: %v at position %d, asked %v", ErrBadResponse, resp.VarBinds[i].OID, i+1, o)
		}
	}
	return resp.VarBinds, nil
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

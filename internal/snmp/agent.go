package snmp

import (
	"bytes"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
)

// Agent serves a MIB under a community string. Handle implements the
// request/response logic; transports feed it bytes.
type Agent struct {
	Name      string // diagnostic: usually the sysName
	Community string
	MIB       *MIB

	// Serialize, when set, wraps each request's MIB access. Daemon mode
	// sets it to a shared lock so UDP handlers reading live simulator
	// counters don't race the clock-advancing goroutine; virtual-time
	// experiments leave it nil.
	Serialize func(fn func())

	requests atomic.Uint64
	prep     atomic.Pointer[prepared] // the last GET answered in full
}

// NewAgent creates an agent with an empty MIB.
func NewAgent(name, community string) *Agent {
	return &Agent{Name: name, Community: community, MIB: NewMIB()}
}

// Requests returns how many PDUs the agent has handled (diagnostic).
func (a *Agent) Requests() uint64 { return a.requests.Load() }

// Handle processes one decoded request and returns the response message.
func (a *Agent) Handle(req *Message) *Message {
	resp := new(Message)
	a.serve(req, resp, new(agentScratch))
	return resp
}

// agentScratch is one request's decode and answer space. HandleBytes
// takes one from scratchPool per call, so concurrent callers (UDP
// handlers, two collectors polling one registry) never share one, and
// a steady stream of GETs allocates only the encoded answer.
type agentScratch struct {
	req, resp Message
	slab      []uint32       // the request's OID components (Message.decode)
	gets      []func() Value // a GET's getters, one per varbind (MIB.getters)
	gen       uint64         // the MIB generation gets was resolved at
	vals      []Value        // a replayed GET's values (Agent.replay)
}

var scratchPool = sync.Pool{New: func() any { return new(agentScratch) }}

// release drops what the scratch points at outside itself, then
// returns it to the pool.
func (s *agentScratch) release() {
	clear(s.gets)
	clear(s.vals)
	clear(s.resp.VarBinds)
	scratchPool.Put(s)
}

// serve answers req into resp under Serialize, when set.
func (a *Agent) serve(req, resp *Message, s *agentScratch) {
	if a.Serialize != nil {
		a.Serialize(func() { a.handle(req, resp, s) })
		return
	}
	a.handle(req, resp, s)
}

func (a *Agent) handle(req, resp *Message, s *agentScratch) {
	a.requests.Add(1)
	*resp = Message{
		Community: req.Community,
		Type:      PDUResponse,
		RequestID: req.RequestID,
		VarBinds:  resp.VarBinds[:0],
	}
	if req.Community != a.Community {
		resp.Error = BadCommunity
		return
	}
	switch req.Type {
	case PDUGet:
		s.gets, s.gen = a.MIB.getters(req.VarBinds, s.gets[:0])
		for i, vb := range req.VarBinds {
			get := s.gets[i]
			if get == nil {
				resp.Error = NoSuchName
				resp.ErrorIndex = uint32(i + 1)
				resp.VarBinds = append(resp.VarBinds, VarBind{OID: vb.OID, Value: Null()})
				continue
			}
			resp.VarBinds = append(resp.VarBinds, VarBind{OID: vb.OID, Value: get()})
		}
	case PDUGetNext:
		for i, vb := range req.VarBinds {
			noid, v, ok := a.MIB.Next(vb.OID)
			if !ok {
				resp.Error = NoSuchName
				resp.ErrorIndex = uint32(i + 1)
				resp.VarBinds = append(resp.VarBinds, VarBind{OID: vb.OID, Value: Null()})
				continue
			}
			resp.VarBinds = append(resp.VarBinds, VarBind{OID: noid, Value: v})
		}
	case PDUGetBulk:
		maxReps := int(req.ErrorIndex)
		if maxReps <= 0 {
			maxReps = 10
		}
		if maxReps > maxVarBinds {
			maxReps = maxVarBinds
		}
		for _, vb := range req.VarBinds {
			cur := vb.OID
			for r := 0; r < maxReps; r++ {
				noid, v, ok := a.MIB.Next(cur)
				if !ok {
					break // end of MIB: return fewer repetitions
				}
				resp.VarBinds = append(resp.VarBinds, VarBind{OID: noid, Value: v})
				cur = noid
				if len(resp.VarBinds) >= maxVarBinds {
					break
				}
			}
		}
	default:
		resp.Error = GenErr
	}
}

// HandleBytes decodes, handles, and re-encodes — the full path a
// transport exercises. Malformed requests yield a nil response (agents
// drop garbage rather than answering it, like real SNMP daemons). The
// request and response messages are pooled scratch; the returned bytes
// are the caller's.
//
// A GET answered in full with NoError is prepared: a poll plan sends
// the agent the same bytes every round, the request ID aside, so a
// request that matches the prepared one is answered from it (replay)
// without decoding the request or resolving its OIDs again. Equal bytes
// decode to the same message, so the answer is the full path's, byte
// for byte.
func (a *Agent) HandleBytes(req []byte) []byte {
	s := scratchPool.Get().(*agentScratch)
	defer s.release()
	if p, id := a.match(req); p != nil {
		return a.replay(p, id, s)
	}
	var err error
	if s.slab, err = s.req.decode(req, s.slab); err != nil {
		return nil
	}
	a.serve(&s.req, &s.resp, s)
	out, err := Encode(&s.resp)
	if err != nil {
		return nil
	}
	if s.req.Type == PDUGet && s.resp.Error == NoError {
		a.prepare(req, s)
	}
	return out
}

// prepared is a GET an agent answered in full with NoError, kept to
// answer the same request again. It is immutable once stored.
type prepared struct {
	body []byte   // the request's bytes after the header: its varbinds
	at   []uint32 // each varbind's offset in body, where its OID begins
	oids int      // the bytes of body's OIDs: what an answer copies of it

	gets []func() Value // the varbinds' getters
	gen  uint64         // the MIB generation gets was resolved at
}

// prepare records req, which the full path has just answered with s's
// getters, as the agent's prepared GET.
func (a *Agent) prepare(req []byte, s *agentScratch) {
	start := headerLen + int(req[3]) // req[3]: the community length
	p := &prepared{
		body: bytes.Clone(req[start:]),
		at:   make([]uint32, len(s.gets)),
		gets: slices.Clone(s.gets),
		gen:  s.gen,
	}
	d := decoder{buf: p.body}
	for i := range p.at {
		p.at[i] = uint32(d.off)
		olen, _ := d.oid() // req decoded cleanly
		_, _ = d.value()
		p.oids += 1 + 4*olen
	}
	a.prep.Store(p)
}

// match returns the agent's prepared GET and req's ID when req asks
// exactly it again: a well-formed header of a GET under the agent's
// community, the same varbind count and the same bytes after the
// header, with the MIB unchanged since its getters were resolved.
func (a *Agent) match(req []byte) (*prepared, uint32) {
	p := a.prep.Load()
	if p == nil {
		return nil, 0
	}
	d := decoder{buf: req}
	h, err := d.header()
	if err != nil || h.typ != PDUGet || string(h.community) != a.Community || h.count != len(p.gets) ||
		!bytes.Equal(req[d.off:], p.body) || p.gen != a.MIB.gen.Load() {
		return nil, 0
	}
	return p, h.id
}

// replay answers request id from p: the header, then each asked OID's
// bytes and its getter's value. A value that does not encode drops the
// request, as Encode's refusal does on the full path.
func (a *Agent) replay(p *prepared, id uint32, s *agentScratch) []byte {
	if a.Serialize != nil {
		a.Serialize(func() { a.read(p, s) })
	} else {
		a.read(p, s)
	}
	size := headerLen + len(a.Community) + p.oids
	for _, v := range s.vals {
		n, err := valueSize(v)
		if err != nil {
			return nil
		}
		size += n
	}
	buf := appendHeader(make([]byte, 0, size), a.Community, PDUResponse, id, NoError, 0, len(s.vals))
	for i, v := range s.vals {
		at := p.at[i]
		buf = append(buf, p.body[at:at+1+4*uint32(p.body[at])]...)
		buf = appendValue(buf, v)
	}
	return buf
}

// read counts a replayed request and runs p's getters into s.vals.
func (a *Agent) read(p *prepared, s *agentScratch) {
	a.requests.Add(1)
	s.vals = s.vals[:0]
	for _, get := range p.gets {
		s.vals = append(s.vals, get())
	}
}

// UDPServer runs an agent on a UDP socket until Close is called.
type UDPServer struct {
	agent *Agent
	conn  *net.UDPConn
	done  chan struct{}
}

// ServeUDP binds the agent to a localhost UDP port (pass "127.0.0.1:0"
// for an ephemeral port) and serves until Close.
func ServeUDP(a *Agent, addr string) (*UDPServer, error) {
	uaddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("snmp: %w", err)
	}
	conn, err := net.ListenUDP("udp", uaddr)
	if err != nil {
		return nil, fmt.Errorf("snmp: %w", err)
	}
	s := &UDPServer{agent: a, conn: conn, done: make(chan struct{})}
	go s.loop()
	return s, nil
}

// Addr returns the bound address.
func (s *UDPServer) Addr() string { return s.conn.LocalAddr().String() }

// Close stops the server.
func (s *UDPServer) Close() error {
	err := s.conn.Close()
	<-s.done
	return err
}

func (s *UDPServer) loop() {
	defer close(s.done)
	buf := make([]byte, 65536)
	for {
		n, raddr, err := s.conn.ReadFromUDP(buf)
		if err != nil {
			return // closed
		}
		resp := s.agent.HandleBytes(buf[:n])
		if resp != nil {
			// Best effort, like UDP itself.
			_, _ = s.conn.WriteToUDP(resp, raddr)
		}
	}
}

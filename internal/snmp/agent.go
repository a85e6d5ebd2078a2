package snmp

import (
	"fmt"
	"net"
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
}

var scratchPool = sync.Pool{New: func() any { return new(agentScratch) }}

// release drops what the scratch points at outside itself, then
// returns it to the pool.
func (s *agentScratch) release() {
	clear(s.gets)
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
		s.gets = a.MIB.getters(req.VarBinds, s.gets[:0])
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
func (a *Agent) HandleBytes(req []byte) []byte {
	s := scratchPool.Get().(*agentScratch)
	defer s.release()
	var err error
	if s.slab, err = s.req.decode(req, s.slab); err != nil {
		return nil
	}
	a.serve(&s.req, &s.resp, s)
	out, err := Encode(&s.resp)
	if err != nil {
		return nil
	}
	return out
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

package ha

import (
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/simclock"
	"repro/internal/snmp"
	"repro/internal/topofile"
)

const pairTopo = `
host h1
host h2
router r1
link h1 r1 100Mbps 0.5ms
link h2 r1 100Mbps 0.5ms
`

// pair is a two-collector harness on one shared virtual network: both
// collectors poll the same agents, exactly like a hot-standby pair
// deployed against one estate.
type pair struct {
	clk   *simclock.Clock
	lease *MemoryLease
	colA  *collector.Collector
	colB  *collector.Collector
}

func newPair(t *testing.T) *pair {
	t.Helper()
	g, err := topofile.ParseString(pairTopo)
	if err != nil {
		t.Fatalf("topology: %v", err)
	}
	clk := simclock.New()
	net, err := netsim.New(clk, g)
	if err != nil {
		t.Fatalf("netsim: %v", err)
	}
	att := snmp.Attach(net, snmp.DefaultCommunity)
	addrs := make(map[graph.NodeID]string)
	for id := range att.Agents {
		addrs[id] = snmp.Addr(id)
	}
	mk := func() *collector.Collector {
		return collector.New(collector.Config{
			Client:     snmp.NewClient(att.Registry, snmp.DefaultCommunity),
			Clock:      clk,
			Addrs:      addrs,
			PollPeriod: 2,
		})
	}
	return &pair{clk: clk, lease: NewMemoryLease(clk), colA: mk(), colB: mk()}
}

func (p *pair) node(t *testing.T, col *collector.Collector, id, peer string, ttl, hb float64) *Node {
	t.Helper()
	n, err := New(Config{
		Collector: col,
		Clock:     p.clk,
		Lease:     p.lease,
		ID:        id,
		PeerAddr:  peer,
		LeaseTTL:  ttl,
		Heartbeat: hb,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { n.Kill(); n.Wait() })
	return n
}

func polls(col *collector.Collector) uint64 {
	return col.Telemetry().Snapshot().Counters["collector.polls"]
}

func TestMemoryLeaseTermsMonotonic(t *testing.T) {
	clk := simclock.New()
	l := NewMemoryLease(clk)

	term, ok, err := l.Acquire("a", 3)
	if err != nil || !ok || term != 1 {
		t.Fatalf("first acquire: term=%d ok=%v err=%v", term, ok, err)
	}
	// Held and unexpired: a rival cannot take it.
	if _, ok, _ := l.Acquire("b", 3); ok {
		t.Fatal("rival acquired a live lease")
	}
	// The holder renews; a rival's renewal fails.
	if ok, _ := l.Renew("a", 1, 3); !ok {
		t.Fatal("holder renewal failed")
	}
	if ok, _ := l.Renew("b", 1, 3); ok {
		t.Fatal("rival renewed someone else's lease")
	}
	// Expiry opens the door, and the next term is minted.
	clk.Advance(3.5)
	term, ok, _ = l.Acquire("b", 3)
	if !ok || term != 2 {
		t.Fatalf("post-expiry acquire: term=%d ok=%v", term, ok)
	}
	// The deposed holder's renewal at the old term fails.
	if ok, _ := l.Renew("a", 1, 3); ok {
		t.Fatal("deposed holder renewed at a stale term")
	}
	st, _ := l.Observe()
	if st.Holder != "b" || st.Term != 2 || st.Expired {
		t.Fatalf("observe: %+v", st)
	}
	// Release frees the grant but preserves the term counter.
	if err := l.Release("b", 2); err != nil {
		t.Fatal(err)
	}
	term, ok, _ = l.Acquire("a", 3)
	if !ok || term != 3 {
		t.Fatalf("post-release acquire: term=%d ok=%v", term, ok)
	}
}

func TestFileLease(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lease.json")
	now := time.Unix(1000, 0)
	mk := func() *FileLease {
		l := NewFileLease(path)
		l.now = func() time.Time { return now }
		return l
	}
	// Two independent handles (two daemons) on one file.
	la, lb := mk(), mk()

	term, ok, err := la.Acquire("a", 3)
	if err != nil || !ok || term != 1 {
		t.Fatalf("acquire: term=%d ok=%v err=%v", term, ok, err)
	}
	if _, ok, _ := lb.Acquire("b", 3); ok {
		t.Fatal("rival acquired a live lease")
	}
	st, err := lb.Observe()
	if err != nil || st.Holder != "a" || st.Term != 1 || st.Expired {
		t.Fatalf("observe: %+v err=%v", st, err)
	}
	now = now.Add(4 * time.Second)
	term, ok, _ = lb.Acquire("b", 3)
	if !ok || term != 2 {
		t.Fatalf("post-expiry acquire: term=%d ok=%v", term, ok)
	}
	if ok, _ := la.Renew("a", 1, 3); ok {
		t.Fatal("deposed holder renewed")
	}
	if ok, _ := lb.Renew("b", 2, 3); !ok {
		t.Fatal("holder renewal failed")
	}
}

// TestPromotionAfterLeaderDeath is the core deterministic drill: the
// leader dies without releasing its lease, and the standby must
// promote within LeaseTTL + Heartbeat of the death, with the term
// advanced and no overlap in poll rounds.
func TestPromotionAfterLeaderDeath(t *testing.T) {
	p := newPair(t)
	const ttl, hb = 3.0, 1.0
	nodeA := p.node(t, p.colA, "addrA", "", ttl, hb)
	nodeB := p.node(t, p.colB, "addrB", "", ttl, hb)

	var promotedAt simclock.Time
	nodeB.cfg.OnPromote = func(term uint64) { promotedAt = p.clk.Now() }

	if err := nodeA.Start(true); err != nil {
		t.Fatalf("start A: %v", err)
	}
	if nodeA.Role() != RoleLeader || nodeA.Term() != 1 {
		t.Fatalf("A after start: role=%v term=%d", nodeA.Role(), nodeA.Term())
	}
	if err := nodeB.Start(false); err != nil {
		t.Fatalf("start B: %v", err)
	}

	// Steady state: A leads and polls, B observes and stays standby.
	p.clk.Advance(10)
	if nodeB.Role() != RoleStandby || nodeB.Term() != 1 {
		t.Fatalf("B in steady state: role=%v term=%d", nodeB.Role(), nodeB.Term())
	}
	if polls(p.colA) == 0 {
		t.Fatal("leader never polled")
	}
	if polls(p.colB) != 0 {
		t.Fatal("standby polled agents")
	}
	// The standby's gate refuses with the observed leader's address.
	err := nodeB.Gate()
	if hint, ok := collector.LeaderHint(err); !ok || hint != "addrA" {
		t.Fatalf("standby gate: err=%v hint=%q", err, hint)
	}
	if nodeA.Gate() != nil {
		t.Fatal("leader gate refused")
	}

	// Crash the leader mid-estate: lease NOT released.
	nodeA.Kill()
	killedAt := p.clk.Now()
	pollsABefore := polls(p.colA)

	p.clk.Advance(ttl + 2*hb)

	if nodeB.Role() != RoleLeader || nodeB.Term() != 2 {
		t.Fatalf("B after failover: role=%v term=%d", nodeB.Role(), nodeB.Term())
	}
	if promotedAt == 0 {
		t.Fatal("OnPromote never fired")
	}
	if d := float64(promotedAt - killedAt); d > ttl+hb+1e-9 {
		t.Fatalf("promotion took %.2fs, bound is %.2fs", d, ttl+hb)
	}
	// Zero dual-leader rounds: the dead leader's poll counter froze.
	if got := polls(p.colA); got != pollsABefore {
		t.Fatalf("dead leader kept polling: %d -> %d", pollsABefore, got)
	}
	if polls(p.colB) == 0 {
		t.Fatal("promoted standby never polled")
	}
	snap := p.colB.Telemetry().Snapshot()
	if snap.Counters["ha.promotions"] != 1 {
		t.Fatalf("ha.promotions = %d", snap.Counters["ha.promotions"])
	}
	if snap.Gauges["ha.role"] != 1 || snap.Gauges["ha.term"] != 2 {
		t.Fatalf("ha gauges: role=%v term=%v", snap.Gauges["ha.role"], snap.Gauges["ha.term"])
	}
	// The names remos-stat's HA line reads (the feed-sync ones move in
	// remos.TestChaosLeaderFailover, where a real feed runs).
	for _, name := range []string{"ha.demotions", "ha.fencing.rejections", "ha.sync.errors", "ha.sync.resyncs"} {
		if _, ok := snap.Counters[name]; !ok {
			t.Fatalf("%s not registered (counters: %v)", name, snap.Counters)
		}
	}
}

// TestGracefulHandoff: Close releases the lease, so the peer takes
// over on its next heartbeat instead of waiting out the TTL.
func TestGracefulHandoff(t *testing.T) {
	p := newPair(t)
	nodeA := p.node(t, p.colA, "addrA", "", 5, 1)
	nodeB := p.node(t, p.colB, "addrB", "", 5, 1)
	if err := nodeA.Start(true); err != nil {
		t.Fatal(err)
	}
	if err := nodeB.Start(false); err != nil {
		t.Fatal(err)
	}
	p.clk.Advance(3)
	nodeA.Close()
	p.clk.Advance(1.5) // one heartbeat, well under the 5s TTL
	if nodeB.Role() != RoleLeader || nodeB.Term() != 2 {
		t.Fatalf("B after handoff: role=%v term=%d", nodeB.Role(), nodeB.Term())
	}
}

// TestLeaderStepsDown: a leader whose renewals lag its TTL (a stand-in
// for a partition from the lease store) must detect the higher term on
// its next renewal and demote instead of double-polling.
func TestLeaderStepsDown(t *testing.T) {
	p := newPair(t)
	// A renews every 5s against a 1s TTL; B checks every 1s.
	nodeA := p.node(t, p.colA, "addrA", "", 1, 5)
	nodeB := p.node(t, p.colB, "addrB", "", 3, 1)
	demoted := false
	nodeA.cfg.OnDemote = func(term uint64) { demoted = true }
	if err := nodeA.Start(true); err != nil {
		t.Fatal(err)
	}
	if err := nodeB.Start(false); err != nil {
		t.Fatal(err)
	}

	// t=1: A's grant lapses; B's heartbeat claims term 2. t=5: A's
	// renewal fails and it steps down.
	p.clk.Advance(6)

	if nodeB.Role() != RoleLeader || nodeB.Term() != 2 {
		t.Fatalf("B: role=%v term=%d", nodeB.Role(), nodeB.Term())
	}
	if nodeA.Role() != RoleStandby || nodeA.Term() != 2 {
		t.Fatalf("A: role=%v term=%d", nodeA.Role(), nodeA.Term())
	}
	if !demoted {
		t.Fatal("OnDemote never fired")
	}
	if p.colA.Telemetry().Snapshot().Counters["ha.demotions"] != 1 {
		t.Fatal("ha.demotions != 1")
	}
	// The deposed leader's gate now routes to the new one.
	err := nodeA.Gate()
	if !errors.Is(err, collector.ErrNotLeader) {
		t.Fatalf("deposed gate: %v", err)
	}
	if hint, ok := collector.LeaderHint(err); !ok || hint != "addrB" {
		t.Fatalf("deposed hint: %q", hint)
	}
	// A is stopped; B keeps polling alone.
	pa := polls(p.colA)
	p.clk.Advance(10)
	if polls(p.colA) != pa {
		t.Fatal("deposed leader kept polling")
	}
	if polls(p.colB) == 0 {
		t.Fatal("new leader never polled")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil || !strings.Contains(err.Error(), "Collector") {
		t.Fatalf("want Collector error, got %v", err)
	}
	p := newPair(t)
	if _, err := New(Config{Collector: p.colA}); err == nil || !strings.Contains(err.Error(), "Clock") {
		t.Fatalf("want Clock error, got %v", err)
	}
	if _, err := New(Config{Collector: p.colA, Clock: p.clk}); err == nil || !strings.Contains(err.Error(), "Lease") {
		t.Fatalf("want Lease error, got %v", err)
	}
	if _, err := New(Config{Collector: p.colA, Clock: p.clk, Lease: p.lease}); err == nil || !strings.Contains(err.Error(), "ID") {
		t.Fatalf("want ID error, got %v", err)
	}
}

// errLease wraps a MemoryLease, failing every operation for holders in
// its deny set — a stand-in for a lease-store partition.
type errLease struct {
	*MemoryLease
	mu     sync.Mutex
	denied map[string]bool
}

func (l *errLease) deny(id string, on bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.denied == nil {
		l.denied = make(map[string]bool)
	}
	l.denied[id] = on
}

func (l *errLease) bad(id string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.denied[id]
}

func (l *errLease) Acquire(id string, ttl float64) (uint64, bool, error) {
	if l.bad(id) {
		return 0, false, errors.New("lease store unreachable")
	}
	return l.MemoryLease.Acquire(id, ttl)
}

func (l *errLease) Renew(id string, term uint64, ttl float64) (bool, error) {
	if l.bad(id) {
		return false, errors.New("lease store unreachable")
	}
	return l.MemoryLease.Renew(id, term, ttl)
}

// TestLeaderSelfFencesOnLeaseStorePartition: a leader that cannot
// reach the lease store must step down BEFORE the standby's
// acquisition horizon — its last poll round and the successor's first
// must never overlap, even though neither node ever saw the other.
func TestLeaderSelfFencesOnLeaseStorePartition(t *testing.T) {
	p := newPair(t)
	lease := &errLease{MemoryLease: p.lease}
	const ttl, hb = 3.0, 1.0
	mk := func(col *collector.Collector, id string) *Node {
		n, err := New(Config{
			Collector: col, Clock: p.clk, Lease: lease,
			ID: id, LeaseTTL: ttl, Heartbeat: hb,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Kill(); n.Wait() })
		return n
	}
	nodeA, nodeB := mk(p.colA, "addrA"), mk(p.colB, "addrB")

	var demotedAt, promotedAt simclock.Time
	nodeA.cfg.OnDemote = func(uint64) { demotedAt = p.clk.Now() }
	nodeB.cfg.OnPromote = func(uint64) { promotedAt = p.clk.Now() }

	if err := nodeA.Start(true); err != nil {
		t.Fatal(err)
	}
	if err := nodeB.Start(false); err != nil {
		t.Fatal(err)
	}
	p.clk.Advance(5)

	// Partition A from the lease store.
	lease.deny("addrA", true)
	p.clk.Advance(ttl + 2*hb)

	if nodeA.Role() != RoleStandby {
		t.Fatalf("partitioned leader still leads: role=%v", nodeA.Role())
	}
	if nodeB.Role() != RoleLeader || nodeB.Term() != 2 {
		t.Fatalf("B: role=%v term=%d", nodeB.Role(), nodeB.Term())
	}
	if demotedAt == 0 || promotedAt == 0 {
		t.Fatalf("transitions not observed: demote=%v promote=%v", demotedAt, promotedAt)
	}
	// Self-fence strictly before takeover: A stopped polling before B
	// could have started.
	if demotedAt >= promotedAt {
		t.Fatalf("overlap window: A demoted at %v, B promoted at %v", demotedAt, promotedAt)
	}
	// A heals: it must rejoin as standby at B's term, not grab back.
	lease.deny("addrA", false)
	p.clk.Advance(5)
	if nodeA.Role() != RoleStandby || nodeA.Term() != 2 {
		t.Fatalf("healed A: role=%v term=%d", nodeA.Role(), nodeA.Term())
	}
	if nodeB.Role() != RoleLeader {
		t.Fatal("B lost leadership after A healed")
	}
}

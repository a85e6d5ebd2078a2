// Command remos-collector runs the Remos Collector as a daemon over the
// simulated Figure 3 testbed, advancing the simulation in real time and
// serving queries over TCP (for remos-query or any Modeler via
// remos.DialCollector). Optionally it also exposes every node's SNMP
// agent on a localhost UDP port.
//
// Usage:
//
//	remos-collector -listen 127.0.0.1:7070 \
//	    -blast m-6,m-8,90 -blast m-8,m-6,90 \
//	    -speed 10 -udp
//
// With -gen/-region it becomes one member of a federation: it simulates
// the shared generated topology, polls only its own region, and serves
// a federated view that composes peer regions' summaries:
//
//	remos-collector -gen hier -gen-n 1000 -gen-seed 7 -region r0 \
//	    -listen 127.0.0.1:7070 \
//	    -federate-from r1=127.0.0.1:7071 -federate-from r2=127.0.0.1:7072
package main

import (
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/federation"
	"repro/internal/ha"
	"repro/internal/netsim"
	"repro/internal/snmp"
	"repro/internal/telemetry"
	"repro/internal/topogen"
	"repro/internal/topology"
	"repro/internal/traffic"

	gonet "net"

	graphpkg "repro/internal/graph"
	simclockpkg "repro/internal/simclock"
)

type blastSpec struct {
	arg, src, dst string
	mbps          float64
}

type blackholeSpec struct {
	arg, node string
	from, to  float64
}

// checkTraffic refuses a -blast or -blackhole that the topology cannot
// carry out: an unknown node, a blast that is not between two distinct
// hosts with a route, or a blast rate that is not a positive number.
func checkTraffic(net *netsim.Network, blasts []blastSpec, blackholes []blackholeSpec) error {
	g := net.Graph()
	isHost := func(id string) bool {
		n := g.Node(graphpkg.NodeID(id))
		return n != nil && n.Kind == graphpkg.Compute
	}
	for _, b := range blasts {
		switch {
		case !isHost(b.src) || !isHost(b.dst):
			return fmt.Errorf("-blast %s: both endpoints must be hosts of the topology", b.arg)
		case b.src == b.dst:
			return fmt.Errorf("-blast %s: the endpoints must differ", b.arg)
		case net.Routes().Route(graphpkg.NodeID(b.src), graphpkg.NodeID(b.dst)) == nil:
			return fmt.Errorf("-blast %s: no route from %s to %s", b.arg, b.src, b.dst)
		case !(b.mbps > 0) || math.IsInf(b.mbps, 1):
			return fmt.Errorf("-blast %s: the rate must be a finite number of Mbps above 0", b.arg)
		}
	}
	for _, b := range blackholes {
		if !g.HasNode(graphpkg.NodeID(b.node)) {
			return fmt.Errorf("-blackhole %s: no node %q in the topology", b.arg, b.node)
		}
	}
	return nil
}

func main() {
	listen := flag.String("listen", "127.0.0.1:0", "TCP address for the query service")
	debugAddr := flag.String("debug-addr", "", "optional HTTP address serving JSON metrics (/metrics) and pprof (/debug/pprof/)")
	speed := flag.Float64("speed", 1, "virtual seconds per wall second")
	udp := flag.Bool("udp", false, "also serve each node's SNMP agent over UDP")
	poll := flag.Float64("poll", 2, "collector poll period (virtual seconds)")
	history := flag.String("history", "", "write the measurement history to this file on shutdown")
	downAfter := flag.Int("down-after", 3, "consecutive failures before an agent is marked down")
	backoff := flag.Float64("backoff", 0, "base retry backoff for failing agents (virtual seconds; 0 = poll period)")
	backoffMax := flag.Float64("backoff-max", 0, "maximum retry backoff (virtual seconds; 0 = 16x base)")
	halfLife := flag.Float64("half-life", 0, "data age at which accuracy halves (virtual seconds; 0 = 10x poll, negative disables)")
	seed := flag.Int64("seed", 1, "seed for fault injection")
	checkpoint := flag.String("checkpoint", "", "checkpoint file: restore from it on start, write it periodically and on shutdown")
	checkpointEvery := flag.Float64("checkpoint-every", 30, "periodic checkpoint interval (virtual seconds)")
	var serverCfg collector.ServerConfig
	drainTimeout := serverCfg.RegisterFlags(flag.CommandLine)
	leasePath := flag.String("lease", "", "hot-standby pair: shared lease file; the holder polls, the other daemon syncs from it and promotes on expiry")
	standbyOf := flag.String("standby-of", "", "hot-standby pair: start as the standby of the leader at this query address (requires -lease)")
	leaseTTL := flag.Float64("lease-ttl", 3, "lease grant length in wall seconds; promotion after a leader crash is bounded by it plus one heartbeat")
	haHeartbeat := flag.Float64("ha-heartbeat", 1, "lease renewal/observation period (virtual seconds)")
	advertise := flag.String("advertise", "", "address clients reach this daemon at, used as the lease identity and leader hint (default: the bound listen address)")
	gen := flag.String("gen", "", "simulate a generated topology (fattree|hier|isp) instead of the Figure 3 testbed")
	genN := flag.Int("gen-n", 1000, "with -gen: approximate node count")
	genSeed := flag.Int64("gen-seed", 1, "with -gen: generator seed — every federating daemon must use the same spec")
	genRegions := flag.Int("gen-regions", 3, "with -gen: number of regions in the partition")
	region := flag.String("region", "", "federate: poll only this region's nodes and serve a federated view (requires -gen)")
	var federateFrom []string
	flag.Func("federate-from", "region=addr — subscribe to this peer collector's region summaries (repeatable; requires -region)", func(s string) error {
		if !strings.Contains(s, "=") {
			return fmt.Errorf("want region=addr")
		}
		federateFrom = append(federateFrom, s)
		return nil
	})
	var blasts []blastSpec
	flag.Func("blast", "src,dst,mbps — non-responsive traffic (repeatable)", func(s string) error {
		parts := strings.Split(s, ",")
		if len(parts) != 3 {
			return fmt.Errorf("want src,dst,mbps")
		}
		mbps, err := strconv.ParseFloat(parts[2], 64)
		if err != nil {
			return err
		}
		blasts = append(blasts, blastSpec{s, parts[0], parts[1], mbps})
		return nil
	})
	var blackholes []blackholeSpec
	flag.Func("blackhole", "node,from,to — drop the node's SNMP traffic in [from,to) virtual seconds, to<=0 = forever (repeatable)", func(s string) error {
		parts := strings.Split(s, ",")
		if len(parts) != 3 {
			return fmt.Errorf("want node,from,to")
		}
		from, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return err
		}
		to, err := strconv.ParseFloat(parts[2], 64)
		if err != nil {
			return err
		}
		blackholes = append(blackholes, blackholeSpec{s, parts[0], from, to})
		return nil
	})
	flag.Parse()
	if *standbyOf != "" && *leasePath == "" {
		fatal(fmt.Errorf("-standby-of requires -lease"))
	}
	if *region != "" && *gen == "" {
		fatal(fmt.Errorf("-region requires -gen (the partition derives from the generated topology)"))
	}
	if len(federateFrom) > 0 && *region == "" {
		fatal(fmt.Errorf("-federate-from requires -region"))
	}

	clk := simclockpkg.New()
	g := topology.Testbed()
	var tp *topogen.Topology
	if *gen != "" {
		var err error
		tp, err = topogen.Generate(topogen.Spec{Kind: *gen, N: *genN, Seed: *genSeed, Regions: *genRegions})
		if err != nil {
			fatal(err)
		}
		g = tp.Graph
		fmt.Printf("generated topology %s: %d nodes, %d links, %d regions (seed %d)\n",
			*gen, len(g.Nodes()), g.NumLinks(), len(tp.Regions), *genSeed)
	}
	net, err := netsim.New(clk, g)
	if err != nil {
		fatal(err)
	}
	if err := checkTraffic(net, blasts, blackholes); err != nil {
		fatal(err)
	}
	att := snmp.Attach(net, snmp.DefaultCommunity)

	// One lock serializes simulator access between the real-time clock
	// driver and any UDP agent handlers.
	var mu sync.Mutex
	addrs := make(map[graphpkg.NodeID]string)
	names := make([]graphpkg.NodeID, 0, len(att.Agents))
	for id := range att.Agents {
		names = append(names, id)
	}
	sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })
	for _, id := range names {
		// A federating daemon simulates the whole topology but polls
		// only the region it owns.
		if *region != "" && tp.RegionOf(id) != *region {
			continue
		}
		addrs[id] = snmp.Addr(id)
	}
	if *region != "" && len(addrs) == 0 {
		fatal(fmt.Errorf("region %q has no nodes in the generated topology", *region))
	}
	if *udp {
		for _, id := range names {
			a := att.Agents[id]
			a.Serialize = func(fn func()) {
				mu.Lock()
				defer mu.Unlock()
				fn()
			}
			srv, err := snmp.ServeUDP(a, "127.0.0.1:0")
			if err != nil {
				fatal(err)
			}
			fmt.Printf("SNMP agent %-12s udp://%s\n", id, srv.Addr())
		}
	}

	// All collector traffic crosses the fault injector, so scripted
	// blackholes exercise the breaker/staleness path of a live daemon.
	inj := faults.New(att.Registry, clk, *seed)
	for _, b := range blackholes {
		inj.Blackhole(snmp.Addr(graphpkg.NodeID(b.node)), b.from, b.to)
		to := "forever"
		if b.to > 0 {
			to = strconv.FormatFloat(b.to, 'g', -1, 64)
		}
		fmt.Printf("fault: blackhole %s in [%g, %s)\n", b.node, b.from, to)
	}

	col := collector.New(collector.Config{
		Client:        snmp.NewClient(inj, snmp.DefaultCommunity),
		Clock:         clk,
		Addrs:         addrs,
		PollPeriod:    *poll,
		PerHopLatency: topology.PerHopLatency,
		DownAfter:     *downAfter,
		BackoffBase:   *backoff,
		BackoffMax:    *backoffMax,
		StaleHalfLife: *halfLife,
	})
	mu.Lock()
	// Warm restart: restore checkpointed state first, advance the clock
	// past the save point plus the (virtual-time-scaled) downtime so
	// data ages stay honest, then Start — which skips the cold
	// discovery when a topology was restored.
	if *checkpoint != "" {
		if f, err := os.Open(*checkpoint); err == nil {
			info, rerr := col.RestoreCheckpoint(f)
			f.Close()
			if rerr != nil {
				fmt.Fprintf(os.Stderr, "checkpoint %s unusable, starting cold: %v\n", *checkpoint, rerr)
			} else {
				down := time.Since(info.SavedAtWall).Seconds()
				if down < 0 {
					down = 0
				}
				clk.Advance(info.SavedAt + down**speed)
				fmt.Printf("restored checkpoint %s (saved at t=%.1fs, down %.1fs wall); warm start at t=%.1fs\n",
					*checkpoint, info.SavedAt, down, float64(clk.Now()))
			}
		} else if !os.IsNotExist(err) {
			fmt.Fprintf(os.Stderr, "opening checkpoint: %v\n", err)
		}
	}
	// In a hot-standby pair the ha.Node owns the collector lifecycle:
	// it starts polling on promotion and stops it on demotion. Outside
	// HA the collector starts (and keeps polling) unconditionally.
	if *leasePath == "" {
		if err := col.Start(); err != nil {
			mu.Unlock()
			fatal(err)
		}
	}
	for _, b := range blasts {
		traffic.Blast(net, graphpkg.NodeID(b.src), graphpkg.NodeID(b.dst), b.mbps*1e6)
		fmt.Printf("traffic: %s -> %s at %.0f Mbps\n", b.src, b.dst, b.mbps)
	}
	saveCheckpoint := func() {
		tmp := *checkpoint + ".tmp"
		f, err := os.Create(tmp)
		if err == nil {
			err = col.SaveCheckpoint(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err == nil {
				err = os.Rename(tmp, *checkpoint) // atomic: never a half-written checkpoint
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "writing checkpoint: %v\n", err)
			os.Remove(tmp)
		}
	}
	if *checkpoint != "" && *checkpointEvery > 0 {
		clk.NewTicker(clk.Now()+simclockpkg.Time(*checkpointEvery), *checkpointEvery,
			"collector-checkpoint", func(simclockpkg.Time) { saveCheckpoint() })
	}
	mu.Unlock()

	// The gate refuses queries while this daemon is not the pair's
	// leader. The node is built only after the listener binds (its
	// identity defaults to the bound address), so the gate reads it
	// through an atomic — until the node exists, an HA daemon refuses
	// with the configured peer as the hint rather than serving answers
	// it is not entitled to give.
	var haNode atomic.Pointer[ha.Node]
	var gate func() error
	if *leasePath != "" {
		gate = func() error {
			if n := haNode.Load(); n != nil {
				return n.Gate()
			}
			return &collector.NotLeaderError{Leader: *standbyOf}
		}
	}
	// A federating daemon serves a View — its own region at full
	// fidelity composed with peer regions' summaries — instead of the
	// bare collector. Peers are subscribed over the "region-summary"
	// watch kind and survive peer restarts via the WatchPeer backoff.
	var serveSrc collector.Source = col
	var watchPeers []*federation.WatchPeer
	if *region != "" {
		reg := &federation.Region{Name: *region, Src: col, RegionOf: tp.RegionOf, Clock: clk}
		var peers []federation.Peer
		for _, spec := range federateFrom {
			parts := strings.SplitN(spec, "=", 2)
			addr := parts[1]
			// Dialing happens inside the peer's reconnect loop, after
			// this daemon's own listener is up — a federation whose
			// members all subscribe to each other converges in any
			// startup order.
			wp := federation.NewDialWatchPeer(parts[0], func() (collector.WatchSource, error) {
				return collector.Dial(addr)
			})
			watchPeers = append(watchPeers, wp)
			peers = append(peers, wp)
			fmt.Printf("federation: subscribing to region %s at %s\n", parts[0], addr)
		}
		serveSrc = federation.NewView(federation.Config{Region: reg, Peers: peers, Clock: clk})
		fmt.Printf("federation: serving region %q (%d nodes polled, %d peer regions)\n",
			*region, len(addrs), len(peers))
	}
	serverCfg.Gate = gate
	// Serve the batched "matrix" op through a Modeler pinned over
	// whatever this daemon serves (the bare collector or the federated
	// view).
	serverCfg.Matrix = core.MatrixHandler(core.New(core.Config{Source: serveSrc}))
	srv, err := collector.ServeConfig(serveSrc, *listen, serverCfg)
	if err != nil {
		fatal(err)
	}
	var node *ha.Node
	if *leasePath != "" {
		id := *advertise
		if id == "" {
			id = srv.Addr()
		}
		node, err = ha.New(ha.Config{
			Collector: col,
			Clock:     clk,
			Lease:     ha.NewFileLease(*leasePath),
			ID:        id,
			PeerAddr:  *standbyOf,
			LeaseTTL:  *leaseTTL,
			Heartbeat: *haHeartbeat,
			Serialize: func(fn func()) {
				mu.Lock()
				defer mu.Unlock()
				fn()
			},
			// A deposed leader's watch subscribers are chained to a
			// stale term: drain them so they resubscribe (and get
			// re-routed) instead of consuming a fenced stream. Async —
			// the hook runs under the clock driver's lock.
			OnDemote: func(term uint64) {
				fmt.Printf("ha: stepped down at term %d\n", term)
				go srv.DrainWatches(2 * time.Second)
			},
			OnPromote: func(term uint64) {
				fmt.Printf("ha: promoted to leader at term %d\n", term)
			},
		})
		if err != nil {
			fatal(err)
		}
		mu.Lock()
		err = node.Start(*standbyOf == "")
		mu.Unlock()
		if err != nil {
			fatal(err)
		}
		haNode.Store(node)
		fmt.Printf("hot-standby pair: lease %s (ttl %gs wall, heartbeat %gs virtual), starting as %s, id %s\n",
			*leasePath, *leaseTTL, *haHeartbeat, node.Role(), id)
	}
	fmt.Printf("collector query service on tcp://%s (speed %gx, poll %gs)\n", srv.Addr(), *speed, *poll)
	fmt.Printf("query it: remos-query -addr %s graph\n", srv.Addr())
	if *debugAddr != "" {
		dln, err := gonet.Listen("tcp", *debugAddr)
		if err != nil {
			fatal(err)
		}
		go http.Serve(dln, telemetry.DebugMux(srv.Telemetry(), col.Telemetry()))
		fmt.Printf("debug endpoint on http://%s/metrics (pprof at /debug/pprof/)\n", dln.Addr())
	}

	// Real-time clock driver: 20 Hz wall ticks.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	ticker := time.NewTicker(50 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			mu.Lock()
			clk.Advance(0.05 * *speed)
			mu.Unlock()
		case <-stop:
			fmt.Println("\nshutting down: draining in-flight requests")
			// Graceful drain: stop accepting, let in-flight requests
			// finish within the budget, then force-close stragglers.
			srv.Shutdown(*drainTimeout)
			for _, wp := range watchPeers {
				wp.Close()
			}
			if node != nil {
				// Stop heartbeats/polling under the driver lock, then
				// release the lease and wait for the sync goroutine
				// outside it (a leader's release lets the standby
				// promote immediately instead of waiting out the TTL).
				mu.Lock()
				node.Kill()
				mu.Unlock()
				node.Close()
			}
			mu.Lock()
			if *checkpoint != "" {
				saveCheckpoint()
				fmt.Printf("checkpoint saved to %s\n", *checkpoint)
			}
			if *history != "" {
				f, err := os.Create(*history)
				if err == nil {
					err = col.SaveHistory(f)
					if cerr := f.Close(); err == nil {
						err = cerr
					}
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "saving history: %v\n", err)
				} else {
					fmt.Printf("history saved to %s\n", *history)
				}
			}
			mu.Unlock()
			return
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

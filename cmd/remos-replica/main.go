// Command remos-replica runs a stateless read replica of a collector:
// it subscribes to the collector's replication feed, mirrors the fed
// state locally, and serves the full query/watch service from the
// mirror — so query load scales horizontally without touching the
// collector, and queries keep being answered (with honestly growing
// data ages) through collector restarts and partitions, up to the
// staleness fence.
//
// Usage:
//
//	remos-replica -listen 127.0.0.1:7071 -feed 127.0.0.1:7070 \
//	    -max-staleness 30s
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/replica"
	"repro/internal/telemetry"

	gonet "net"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:0", "TCP address for the replica's query service")
	feed := flag.String("feed", "", "comma-separated collector query addresses to subscribe the replication feed from (required); list both halves of a hot-standby pair and the replica rotates to whichever leads")
	debugAddr := flag.String("debug-addr", "", "optional HTTP address serving JSON metrics (/metrics) and pprof (/debug/pprof/)")
	maxStaleness := flag.Duration("max-staleness", replica.DefaultMaxStaleness, "staleness fence: past this, queries refuse with a typed stale-replica error (negative disables)")
	lagThreshold := flag.Duration("lag-threshold", 0, "feed quiet time before the replica reports Lagging (0 = max-staleness/4)")
	resyncBackoff := flag.Duration("resync-backoff", replica.DefaultResyncBackoff, "initial feed reconnect backoff; doubles to 16x with jitter")
	seed := flag.Int64("seed", 0, "seed for reconnect-backoff jitter (0 = from wall clock)")
	syncTimeout := flag.Duration("sync-timeout", 0, "max wait for the first snapshot before serving (0 = serve immediately, refusing queries until synced)")
	var serverCfg collector.ServerConfig
	drainTimeout := serverCfg.RegisterFlags(flag.CommandLine)
	flag.Parse()

	var feedAddrs []string
	for _, a := range strings.Split(*feed, ",") {
		if a = strings.TrimSpace(a); a != "" {
			feedAddrs = append(feedAddrs, a)
		}
	}
	if len(feedAddrs) == 0 {
		fatal(fmt.Errorf("remos-replica: -feed is required (the collector address to replicate from)"))
	}

	rep := replica.New(replica.Config{
		FeedAddrs:     feedAddrs,
		MaxStaleness:  *maxStaleness,
		LagThreshold:  *lagThreshold,
		ResyncBackoff: *resyncBackoff,
		Seed:          *seed,
		Telemetry:     telemetry.NewRegistry(),
	})
	rep.Start()
	defer rep.Close()

	if *syncTimeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *syncTimeout)
		err := rep.WaitSynced(ctx)
		cancel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "still syncing after %v (%v); serving anyway, queries refuse until synced\n",
				*syncTimeout, err)
		}
	}

	// Serve the batched "matrix" op from the mirrored state. The Modeler
	// re-checks the replica's staleness fence per call, so a fenced
	// replica refuses matrices exactly like point queries.
	serverCfg.Matrix = core.MatrixHandler(core.New(core.Config{Source: rep}))
	srv, err := collector.ServeConfig(rep, *listen, serverCfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("replica query service on tcp://%s (feed %s, fence %v)\n", srv.Addr(), strings.Join(feedAddrs, ","), *maxStaleness)
	fmt.Printf("query it: remos-query -addr %s graph\n", srv.Addr())
	if *debugAddr != "" {
		dln, err := gonet.Listen("tcp", *debugAddr)
		if err != nil {
			fatal(err)
		}
		go http.Serve(dln, telemetry.DebugMux(srv.Telemetry(), rep.Telemetry()))
		fmt.Printf("debug endpoint on http://%s/metrics (pprof at /debug/pprof/)\n", dln.Addr())
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	status := time.NewTicker(10 * time.Second)
	defer status.Stop()
	for {
		select {
		case <-status.C:
			st := rep.Status()
			fmt.Printf("replica %s: epoch %d, last update %.1fs ago\n",
				st.State, st.Epoch, st.Staleness.Seconds())
		case <-stop:
			fmt.Println("\nshutting down: draining in-flight requests")
			srv.Shutdown(*drainTimeout)
			return
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

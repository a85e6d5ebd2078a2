#!/bin/sh
# Full verification gate: build, vet, tests, race detector.
# Run from the repository root (or via `make verify`).
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt check"
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt needed on:"
    echo "$fmt"
    exit 1
fi

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> reachability gate: no dead export, test-only *Config field or unnamed op row under internal/ (DESIGN §23)"
go test -count=1 -run 'TestReachability' .

echo "==> go test ./..."
go test -timeout 120s ./...

echo "==> go test -count=2 ./internal/collector"
go test -timeout 120s -count=2 ./internal/collector

echo "==> go test -race ./..."
go test -race -timeout 120s ./...

echo "==> go test -race -count=2 ./internal/stats (window vs naive model, predecessor views under concurrent readers)"
go test -race -timeout 120s -count=2 -run 'TestWindow' ./internal/stats

echo "==> go test -race -count=2 ./internal/telemetry (concurrent writers vs snapshot readers)"
go test -race -timeout 120s -count=2 ./internal/telemetry

echo "==> chaos suite under -race (seeded; replay failures with -chaos.seed)"
go test -race -timeout 300s -count=1 -run TestChaosLifecycle ./remos -chaos.seed=1 -chaos.events=60

echo "==> replication chaos under -race (feed blackhole, fence, resync)"
go test -race -timeout 300s -count=1 -run 'TestChaosReplicaPartition|TestReplicaFailoverEndToEnd' ./remos -chaos.seed=1

echo "==> ha stage: lease/promotion determinism + leader-failover chaos under -race"
go test -race -timeout 120s -count=1 ./internal/ha
go test -race -timeout 300s -count=1 -run TestChaosLeaderFailover ./remos -chaos.seed=1

echo "==> federation stage: generators + 3-region federation (summaries, fencing, dark region, watch peers) under -race"
go test -race -timeout 300s -count=1 ./internal/topogen ./internal/federation
go test -race -timeout 300s -count=1 -run 'TestFederationThousandNodeAcceptance|TestScaleStudy' ./internal/experiments

echo "==> matrix stage: wire op + admission + fencing, a two-replica set under oracle-checked load, under -race, kernel equivalence"
go test -race -timeout 300s -count=1 -run 'TestMatrix' ./remos ./internal/core

echo "==> dialed modeler: four goroutines on one dialed handle while polls advance, x10 under -race (TestDialed*, TestPrefetch*, TestReadOp* ran once in the -race pass above)"
go test -race -timeout 300s -count=10 -run TestDialedModelerConcurrentWithPolls ./remos

echo "==> one query program: every Modeler reads through one collector read (in process, dialed, Future windows, point reads), x5 under -race"
go test -race -timeout 300s -count=5 -run 'TestPrefetch|TestAvailMemo' ./internal/core
go test -race -timeout 300s -count=5 -run 'TestReadOp|TestPointReads' ./internal/collector
go test -race -timeout 300s -count=5 -run 'TestDialedFutureMatchesInProcess|TestDialedModelerFollowsRediscovery' ./remos

echo "==> mux stage: the op table, inline server ops, leader/follower client demux and stalled-subscriber eviction, x20 under -race"
go test -race -timeout 600s -count=20 -run 'TestOpTable|TestInline|TestLeader|TestLone|TestFailedWriteDropsConn|TestWatchPipelining|TestWatchStalledSubscriberEvicted' ./internal/collector

echo "==> simclock: Now() read from query goroutines while the run loop advances it"
go test -race -timeout 300s -count=20 -run TestMatrixConcurrentWithPollRounds ./internal/core

echo "==> benchmark module: vet + oracle-checked smoke of all four workloads (its own go.mod; ./... above does not reach it)"
go vet -C benchmark ./...
go test -C benchmark -timeout 300s ./...

echo "==> fuzz smoke (10s per target)"
go test -fuzz=FuzzDecode -fuzztime=10s -run '^$' ./internal/snmp
# FuzzGetResponse: Get's one-pass answer check against Decode plus the
# shape checks it replaced.
go test -fuzz=FuzzGetResponse -fuzztime=10s -run '^$' ./internal/snmp
# FuzzAgentReplay: an agent primed with a poll plan's GET answers any
# request as the full decode, resolve and encode path does.
go test -fuzz=FuzzAgentReplay -fuzztime=10s -run '^$' ./internal/snmp
go test -fuzz=FuzzWindowOps -fuzztime=10s -run '^$' ./internal/stats
go test -fuzz='^FuzzReadFrame$' -fuzztime=10s -run '^$' ./internal/collector
go test -fuzz=FuzzReadMuxFrame -fuzztime=10s -run '^$' ./internal/collector
go test -fuzz=FuzzDecodeMatrixRequest -fuzztime=10s -run '^$' ./internal/collector
# FuzzMatrixFold: a compiled matrix row (interior steps and last-hop
# table) against the stats.MinStat fold it replaced, on valid channels.
go test -fuzz=FuzzMatrixFold -fuzztime=10s -run '^$' ./internal/core
# FuzzStateBody: the feed, summary, telemetry and checkpoint bodies and
# the checkpoint and history file readers.
go test -fuzz=FuzzStateBody -fuzztime=10s -run '^$' ./internal/collector
# FuzzDecodeDelta drives collector.DecodeFeedPayload and
# StateFromPayload/Extend, the one path every consumer of a feed payload,
# checkpoint or history file runs; it lives beside the replica's rig and
# seed corpus.
go test -fuzz=FuzzDecodeDelta -fuzztime=10s -run '^$' ./internal/replica

echo "==> non-test Go lines per package (ROADMAP aim 2: this number goes down)"
./scripts/loc.sh

echo "verify: OK"

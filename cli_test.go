package repro_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestCLIEndToEnd builds the remos-collector and remos-query binaries,
// starts the daemon with interfering traffic, and queries it over TCP —
// the full Figure 2 deployment, with real processes and real sockets.
func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and runs a daemon")
	}
	dir := t.TempDir()
	build := func(name string) string {
		out := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		cmd.Env = os.Environ()
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, msg)
		}
		return out
	}
	collectorBin := build("remos-collector")
	queryBin := build("remos-query")

	daemon := exec.Command(collectorBin,
		"-listen", "127.0.0.1:0",
		"-speed", "50", // 50 virtual seconds per wall second
		"-blast", "m-6,m-8,90",
		"-blast", "m-8,m-6,90",
	)
	stdout, err := daemon.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	daemon.Stderr = os.Stderr
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		daemon.Process.Kill()
		daemon.Wait()
	}()

	// Scrape the bound address from the daemon's banner.
	addrRe := regexp.MustCompile(`collector query service on tcp://(\S+)`)
	var addr string
	scanner := bufio.NewScanner(stdout)
	deadline := time.After(20 * time.Second)
	found := make(chan string, 1)
	go func() {
		for scanner.Scan() {
			if m := addrRe.FindStringSubmatch(scanner.Text()); m != nil {
				found <- m[1]
				break
			}
		}
	}()
	select {
	case addr = <-found:
	case <-deadline:
		t.Fatal("daemon never announced its address")
	}

	// Give the accelerated virtual clock time to accumulate samples
	// (~0.5 s wall = ~25 virtual seconds = ~12 poll rounds).
	time.Sleep(1 * time.Second)

	query := func(args ...string) string {
		cmd := exec.Command(queryBin, append([]string{"-addr", addr}, args...)...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("remos-query %v: %v\n%s", args, err, out)
		}
		return string(out)
	}

	// Topology over the wire.
	graphOut := query("graph")
	if !strings.Contains(graphOut, "timberline") || !strings.Contains(graphOut, "10 logical links") {
		t.Fatalf("graph output:\n%s", graphOut)
	}

	// The loaded path reports reduced availability.
	bwOut := query("-window", "15", "bw", "m-4", "m-7")
	var mbps float64
	if _, err := fmt.Sscanf(bwOut, "m-4 -> m-7: %f Mbps", &mbps); err != nil {
		t.Fatalf("bw output: %q: %v", bwOut, err)
	}
	if mbps > 25 || mbps < 2 {
		t.Fatalf("availability over loaded link = %v Mbps (output %q)", mbps, bwOut)
	}

	// A clean path reports full capacity.
	cleanOut := query("-window", "15", "bw", "m-1", "m-2")
	if _, err := fmt.Sscanf(cleanOut, "m-1 -> m-2: %f Mbps", &mbps); err != nil {
		t.Fatalf("bw output: %q: %v", cleanOut, err)
	}
	if mbps < 95 {
		t.Fatalf("clean availability = %v Mbps", mbps)
	}

	// A flow query from the shell.
	flowsOut := query("-window", "15", "flows", "fixed:m-1,m-2,5", "indep:m-4,m-7")
	if !strings.Contains(flowsOut, "fixed") || !strings.Contains(flowsOut, "independent") {
		t.Fatalf("flows output:\n%s", flowsOut)
	}
	if !strings.Contains(flowsOut, "satisfied=true") {
		t.Fatalf("5 Mbps fixed flow not satisfied:\n%s", flowsOut)
	}

	// Latency and selection.
	latOut := query("latency", "m-1", "m-8")
	if !strings.Contains(latOut, "ms one-way") {
		t.Fatalf("latency output: %q", latOut)
	}
	selOut := query("-window", "15", "select", "m-4", "4")
	for _, want := range []string{"m-4", "m-5", "m-1", "m-2"} {
		if !strings.Contains(selOut, want) {
			t.Fatalf("selection %q missing %s", selOut, want)
		}
	}
	if strings.Contains(selOut, "m-7") || strings.Contains(selOut, "m-8") {
		t.Fatalf("selection %q includes traffic-side nodes", selOut)
	}
}

// TestCLIRejectsBadTrafficFlags starts the daemons with traffic and
// feed flags the topology cannot carry out. Each must exit with status 1
// and one line naming the flag, and none may panic.
func TestCLIRejectsBadTrafficFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	bins := map[string]string{}
	for _, name := range []string{"remos-collector", "remos-replica"} {
		bins[name] = filepath.Join(dir, name)
		if msg, err := exec.Command("go", "build", "-o", bins[name], "./cmd/"+name).CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, msg)
		}
	}
	for _, tc := range []struct {
		bin  string
		args []string
		want string
	}{
		{"remos-collector", []string{"-blast", "m-1,nosuch,50"}, "-blast m-1,nosuch,50: both endpoints must be hosts"},
		{"remos-collector", []string{"-blast", "m-1,aspen,50"}, "-blast m-1,aspen,50: both endpoints must be hosts"},
		{"remos-collector", []string{"-blast", "m-1,m-7,0"}, "-blast m-1,m-7,0: the rate must be"},
		{"remos-collector", []string{"-blast", "m-1,m-1,50"}, "-blast m-1,m-1,50: the endpoints must differ"},
		{"remos-collector", []string{"-blackhole", "nosuch,0,0"}, `-blackhole nosuch,0,0: no node "nosuch"`},
		{"remos-replica", []string{"-feed", ","}, "-feed is required"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		out, err := exec.CommandContext(ctx, bins[tc.bin], append([]string{"-listen", "127.0.0.1:0"}, tc.args...)...).CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%s %v: %v, want exit status 1\n%s", tc.bin, tc.args, err, out)
		}
		if !strings.Contains(string(out), tc.want) || strings.Contains(string(out), "panic:") {
			t.Errorf("%s %v: output %q, want a line with %q and no panic", tc.bin, tc.args, out, tc.want)
		}
	}
}

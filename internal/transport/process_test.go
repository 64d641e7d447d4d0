package transport_test

// Real-process coverage: the same parity and failure assertions as the
// goroutine-mode suite, but with cmd/tcpnode compiled and spawned as
// actual OS processes — the configuration -transport=tcp ships. One
// binary is built per test run; `make transport-suite` runs this alongside
// the full goroutine-mode matrix under -race.

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"almostmix/internal/transport"
)

func TestMain(m *testing.M) {
	os.Exit(func() int {
		defer func() {
			if tcpnodeDir != "" {
				os.RemoveAll(tcpnodeDir)
			}
		}()
		return m.Run()
	}())
}

var (
	tcpnodeDir string
	tcpnodeBin string
)

// buildTCPNode compiles cmd/tcpnode once per test binary.
func buildTCPNode(t *testing.T) string {
	t.Helper()
	if tcpnodeBin != "" {
		return tcpnodeBin
	}
	dir, err := os.MkdirTemp("", "tcpnode-test")
	if err != nil {
		t.Fatal(err)
	}
	tcpnodeDir = dir
	bin := filepath.Join(dir, "tcpnode")
	cmd := exec.Command("go", "build", "-o", bin, "almostmix/cmd/tcpnode")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building tcpnode: %v\n%s", err, out)
	}
	tcpnodeBin = bin
	return bin
}

func TestRealProcessParity(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns real processes")
	}
	bin := buildTCPNode(t)
	for _, spec := range []transport.Spec{
		suiteSpecs(1)[4], // walks
		suiteSpecs(1)[3], // ghs
	} {
		t.Run(spec.Workload, func(t *testing.T) {
			want, wantRes := traceRun(t, transport.Proc{Workers: 1}, spec, "proc-vs-os")
			tcp := transport.TCP{Shards: 2, NodeBin: bin, Timeout: 60 * time.Second}
			got, gotRes := traceRun(t, tcp, spec, "proc-vs-os")
			if !bytes.Equal(want, got) {
				t.Errorf("real-process trace bytes diverge from the sequential engine (%d vs %d bytes)",
					len(want), len(got))
			}
			sameResult(t, "real-process", wantRes, gotRes)
		})
	}
}

// TestRealProcessShardDeath kills shard 1's process just before it steps
// round 2: its peer names it — last completed round 1, its last frame a
// ROUND, phase peer-wait — and the run ends within two timeouts.
func TestRealProcessShardDeath(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns real processes")
	}
	bin := buildTCPNode(t)
	t.Setenv("TCPNODE_FAIL_SHARD", "1")
	t.Setenv("TCPNODE_FAIL_ROUND", "2")
	tcp := transport.TCP{Shards: 2, NodeBin: bin, Timeout: 10 * time.Second}
	start := time.Now()
	_, err := tcp.Run(suiteSpecs(1)[4], transport.Options{})
	if err == nil {
		t.Fatal("killed shard process: run reported success")
	}
	for _, want := range []string{"transport: shard 1:", "last completed round 1", "last frame ROUND", "phase peer-wait"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error does not name %q: %v", want, err)
		}
	}
	if elapsed := time.Since(start); elapsed > 2*tcp.Timeout {
		t.Errorf("death took %v to surface, want within two timeouts", elapsed)
	}
}

func TestRealProcessMissingBinaryFailsFast(t *testing.T) {
	tcp := transport.TCP{Shards: 2, NodeBin: filepath.Join(t.TempDir(), "nope"), Timeout: 5 * time.Second}
	if _, err := tcp.Run(suiteSpecs(1)[0], transport.Options{}); err == nil {
		t.Fatal("missing node binary: run reported success")
	} else if !strings.Contains(err.Error(), "spawn shard") {
		t.Errorf("err = %v, want a spawn failure", err)
	}
}

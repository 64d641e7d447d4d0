package transport

import (
	"fmt"
	"os"
	"path/filepath"
)

// ResolveNodeBin settles TCP.NodeBin for a cmd binary's -tcpnode flag:
// an empty path defaults to a "tcpnode" binary next to the calling
// executable, and either way the binary must exist — a missing shard
// runtime should fail here, not as k dial timeouts mid-run.
func ResolveNodeBin(path string) (string, error) {
	if path == "" {
		exe, err := os.Executable()
		if err != nil {
			return "", fmt.Errorf("transport: locating own executable for the tcpnode default: %w", err)
		}
		path = filepath.Join(filepath.Dir(exe), "tcpnode")
	}
	if _, err := os.Stat(path); err != nil {
		return "", fmt.Errorf("transport: tcpnode binary: %w (build cmd/tcpnode next to this binary or pass -tcpnode)", err)
	}
	return path, nil
}

// String describes a backend for table titles: its name plus the one
// setting that shapes the run.
func (p Proc) String() string { return fmt.Sprintf("proc, workers=%d", p.Workers) }
func (t TCP) String() string  { return fmt.Sprintf("tcp, shards=%d", t.Shards) }

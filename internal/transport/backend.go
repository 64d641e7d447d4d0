package transport

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// BackendConfig carries every backend-tuning flag a cmd binary exposes,
// so adding a transport knob means one field here instead of a longer
// positional signature at every call site. Zero values select defaults;
// fields irrelevant to the chosen backend are ignored.
type BackendConfig struct {
	// Workers is the proc backend's Proc.Workers (0 = one worker per CPU).
	Workers int
	// Shards is the tcp backend's node-process count.
	Shards int
	// Listen is the tcp coordinator's listen address ("" or
	// "127.0.0.1:0" for loopback with a kernel-assigned port).
	Listen string
	// NodeBin is the tcpnode binary; "" defaults to a "tcpnode" next to
	// the calling executable.
	NodeBin string
	// Timeout bounds every tcp wire barrier; 0 keeps the transport
	// default (60s).
	Timeout time.Duration
	// ObsOut, when set, makes every tcp run write its merged
	// observability document (ObsDoc) to this path on every exit path.
	ObsOut string
	// FlightRecCap sizes the flight-recorder rings on both ends; 0
	// selects flightrec.DefaultCapacity.
	FlightRecCap int
	// FlightRecOut, when set, makes each spawned tcpnode dump its own
	// ring to <FlightRecOut>.shard<i>.json on death.
	FlightRecOut string
}

// NewBackend resolves a -transport flag value into a backend. For tcp,
// an empty NodeBin defaults to a "tcpnode" binary next to the calling
// executable, and either way the binary must exist — a missing shard
// runtime should fail here, not as k dial timeouts mid-run.
func NewBackend(name string, cfg BackendConfig) (Transport, error) {
	switch name {
	case "proc":
		return Proc{Workers: cfg.Workers}, nil
	case "tcp":
		nodeBin := cfg.NodeBin
		if nodeBin == "" {
			exe, err := os.Executable()
			if err != nil {
				return nil, fmt.Errorf("transport: locating own executable for the tcpnode default: %w", err)
			}
			nodeBin = filepath.Join(filepath.Dir(exe), "tcpnode")
		}
		if _, err := os.Stat(nodeBin); err != nil {
			return nil, fmt.Errorf("transport: tcpnode binary: %w (build cmd/tcpnode next to this binary or pass -tcpnode)", err)
		}
		return TCP{
			Shards:       cfg.Shards,
			ListenAddr:   cfg.Listen,
			NodeBin:      nodeBin,
			Timeout:      cfg.Timeout,
			ObsOut:       cfg.ObsOut,
			FlightRecCap: cfg.FlightRecCap,
			FlightRecOut: cfg.FlightRecOut,
		}, nil
	default:
		return nil, fmt.Errorf("transport: unknown backend %q (known: proc, tcp)", name)
	}
}

// String describes a backend for table titles: its name plus the one
// setting that shapes the run.
func (p Proc) String() string { return fmt.Sprintf("proc, workers=%d", p.Workers) }
func (t TCP) String() string  { return fmt.Sprintf("tcp, shards=%d", t.Shards) }

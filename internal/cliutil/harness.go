package cliutil

import (
	"flag"
	"fmt"
	"os"
	"time"

	"almostmix/internal/congest"
	"almostmix/internal/metrics"
	"almostmix/internal/transport"
)

// Harness is the one way out of an experiment binary. It owns the flags
// every binary shares — the telemetry group (-trace, -metrics, -pprof,
// -pprofout) and, for the binaries that run node programs, the backend
// group (-workers, -transport and the tcp knobs) — validates them with
// the same exit-2 discipline as the rest of this package, and runs the
// experiment body inside one host-metrics session with one trace sink.
// Whatever the body does, Run exports what was collected: the trace is
// written and the session closed on success, on a body error and on an
// export error alike, and any error ends the process as "<name>: <err>"
// with exit code 1.
type Harness struct {
	name string
	fs   *flag.FlagSet

	trace, metricsOut, pprofMode, pprofOut string

	backend *backendFlags

	sess *metrics.Session
	sink *congest.TraceSink
	tr   transport.Transport
}

// NewHarness registers the telemetry flags on the command line for the
// binary called name. traceHelp describes what this binary's -trace file
// holds; an empty traceHelp means the binary has nothing to trace and
// gets no -trace flag.
func NewHarness(name, traceHelp string) *Harness {
	return newHarness(flag.CommandLine, name, traceHelp)
}

func newHarness(fs *flag.FlagSet, name, traceHelp string) *Harness {
	h := &Harness{name: name, fs: fs}
	if traceHelp != "" {
		fs.StringVar(&h.trace, "trace", "", traceHelp)
	}
	fs.StringVar(&h.metricsOut, "metrics", "", "write a host-side metrics snapshot to this file (.json for JSON, CSV otherwise)")
	fs.StringVar(&h.pprofMode, "pprof", "", "capture a runtime profile: cpu, heap or mutex")
	fs.StringVar(&h.pprofOut, "pprofout", "", "profile output path (default <mode>.pprof)")
	return h
}

// backendFlags holds the raw values of the backend flag group.
type backendFlags struct {
	workers    int
	transport  string
	shards     int
	listen     string
	tcpnode    string
	tcptimeout time.Duration
	obsOut     string
}

// WithBackend additionally registers the backend flags; Transport then
// returns the backend they select.
func (h *Harness) WithBackend() *Harness {
	b, fs := &backendFlags{}, h.fs
	fs.IntVar(&b.workers, "workers", 1, "simulator workers for the node-program runs (1 = sequential reference, 0 = one per CPU); results are identical for every value")
	fs.StringVar(&b.transport, "transport", "proc", "node-program execution backend: proc (in-process engines) or tcp (one OS process per shard over loopback TCP); results are identical")
	fs.IntVar(&b.shards, "shards", 2, "node processes for -transport=tcp")
	fs.StringVar(&b.listen, "listen", "127.0.0.1:0", "coordinator listen address for -transport=tcp")
	fs.StringVar(&b.tcpnode, "tcpnode", "", "path to the tcpnode binary for -transport=tcp (default: next to this binary)")
	fs.DurationVar(&b.tcptimeout, "tcptimeout", 0, "wire barrier deadline for -transport=tcp (0 = transport default, 60s)")
	fs.StringVar(&b.obsOut, "obsout", "", "write the tcp run's merged observability document (flight recorders, wire tallies, barrier timeline, round skew) to this file on every exit path")
	h.backend = b
	return h
}

// validate rejects bad telemetry flags: unwritable outputs, an unknown
// profile mode, a profile path with no profile to write. It settles the
// effective profile path so the default is probed like an explicit one.
func (h *Harness) validate() {
	Writable("trace", h.trace)
	Writable("metrics", h.metricsOut)
	switch h.pprofMode {
	case "":
		if h.pprofOut != "" {
			Fail("-pprofout needs -pprof: no profile is being captured")
		}
	case "cpu", "heap", "mutex":
		if h.pprofOut == "" {
			h.pprofOut = h.pprofMode + ".pprof"
		}
		Writable("pprofout", h.pprofOut)
	default:
		Fail("invalid -pprof %q: must be cpu, heap or mutex", h.pprofMode)
	}
}

// resolve validates the backend flags and builds the backend. The valid
// -transport names are checked here (not in internal/transport) so a
// typo stays a flag error with exit code 2; the observability document
// describes a distributed run, so -obsout needs tcp; and a missing
// tcpnode binary fails now rather than as dial timeouts mid-run.
func (b *backendFlags) resolve() transport.Transport {
	Workers("workers", b.workers)
	Min("shards", b.shards, 1)
	Listen("listen", b.listen)
	switch b.transport {
	case "proc":
		if b.obsOut != "" {
			Fail("-obsout needs -transport=tcp: the observability document describes a distributed run")
		}
		return transport.Proc{Workers: b.workers}
	case "tcp":
		Writable("obsout", b.obsOut)
		nodeBin, err := transport.ResolveNodeBin(b.tcpnode)
		if err != nil {
			Fail("%v", err)
		}
		return transport.TCP{
			Shards:     b.shards,
			ListenAddr: b.listen,
			NodeBin:    nodeBin,
			Timeout:    b.tcptimeout,
			ObsOut:     b.obsOut,
		}
	}
	Fail("invalid -transport %q: must be proc or tcp", b.transport)
	return nil
}

// Run validates the harness flags (exit 2 on a bad one, before any work),
// runs body inside the session, then writes the trace and closes the
// session whether or not body succeeded — a failed run leaves the trace
// of what it got through next to its metrics snapshot. The first error
// of body, trace export and session close is printed and exits 1.
func (h *Harness) Run(body func() error) {
	h.validate()
	if h.backend != nil {
		h.tr = h.backend.resolve()
	}
	if err := h.run(body); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", h.name, err)
		exit(1)
	}
}

func (h *Harness) run(body func() error) error {
	sess, err := metrics.StartSession(h.metricsOut, h.pprofMode, h.pprofOut)
	if err != nil {
		return err
	}
	h.sess = sess
	if h.trace != "" || sess.Registry() != nil {
		h.sink = congest.NewTraceSink().WithMetrics(sess.Registry())
	}
	err = body()
	if h.trace != "" {
		werr := h.sink.WriteFile(h.trace)
		if werr == nil {
			fmt.Printf("wrote trace (%d round records, %d phase entries, %d cost rows) to %s\n",
				len(h.sink.Rounds), len(h.sink.Phases), len(h.sink.Costs), h.trace)
		} else if err == nil {
			err = werr
		}
	}
	if cerr := sess.Close(); err == nil {
		err = cerr
	}
	return err
}

// Sink returns the run's trace sink: nil unless -trace or -metrics is
// set (a metrics-only run still needs it for the span wall-clock
// pairing), so bodies guard ledger exports with a nil check.
func (h *Harness) Sink() *congest.TraceSink { return h.sink }

// Probe labels the sink's next run(s) and returns it as a probe, or the
// nil interface when there is no sink — safe to hand to any engine.
func (h *Harness) Probe(label string) congest.Probe {
	if h.sink == nil {
		return nil
	}
	return h.sink.Label(label)
}

// Registry returns the session's metrics registry, nil without -metrics.
func (h *Harness) Registry() *metrics.Registry { return h.sess.Registry() }

// Time starts a named wall-clock section of the session (see
// metrics.Session.Time); a no-op without -metrics.
func (h *Harness) Time(name string) func() { return h.sess.Time(name) }

// Transport returns the backend the backend flags selected; nil for a
// harness built without WithBackend.
func (h *Harness) Transport() transport.Transport { return h.tr }

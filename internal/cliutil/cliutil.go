// Package cliutil centralizes what the cmd/ binaries share at their
// edges: the up-front flag validation, so a nonsensical invocation fails
// loudly before any work starts — with one message format and one exit
// code — instead of failing mid-run, panicking in a library, or being
// silently clamped; and the run Harness, the single exit path through
// which every experiment binary exports its trace and host metrics.
package cliutil

import (
	"fmt"
	"net"
	"os"
	"path/filepath"

	"almostmix/internal/faults"
	"almostmix/internal/graph"
)

// exit is swapped out by tests.
var exit = os.Exit

// Fail prints a uniform "<prog>: invalid -flag" diagnostic to stderr and
// exits with status 2, the same code the flag package uses for usage
// errors.
func Fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", filepath.Base(os.Args[0]), fmt.Sprintf(format, args...))
	exit(2)
}

// Min rejects values of -name below lo.
func Min(name string, v, lo int) {
	if v < lo {
		Fail("invalid -%s %d: must be at least %d", name, v, lo)
	}
}

// Beta rejects a partition branching factor embed.Build cannot use: the
// valid values are 0 (the paper's formula) and every value of at least 2.
func Beta(name string, v int) {
	if v < 0 || v == 1 {
		Fail("invalid -%s %d: must be 0 (the paper formula) or at least 2", name, v)
	}
}

// Regular rejects a -n, -d pair graph.RandomRegular cannot serve: no
// connected d-regular graph on n nodes exists (graph.CheckRegular).
func Regular(n, d int) {
	if err := graph.CheckRegular(n, d); err != nil {
		Fail("invalid -n %d -d %d: %v", n, d, err)
	}
}

// Workers rejects negative worker counts. Zero is valid and selects one
// worker per CPU; before this check a negative count was silently clamped
// to the same.
func Workers(name string, v int) {
	if v < 0 {
		Fail("invalid -%s %d: must be >= 0 (0 = one worker per CPU)", name, v)
	}
}

// Listen rejects coordinator listen addresses that are not host:port
// shaped (":0" and "127.0.0.1:0" pass; a bare hostname or port does not).
func Listen(name, v string) {
	if v == "" {
		return
	}
	if _, _, err := net.SplitHostPort(v); err != nil {
		Fail("invalid -%s %q: %v", name, v, err)
	}
}

// Phi rejects conductance targets outside (0,1): the expander
// decomposition accepts a piece when its best sweep cut is at least phi,
// and both endpoints make every graph degenerate (0 accepts everything,
// 1 is unattainable — a cut of conductance 1 still "fails").
func Phi(name string, v float64) {
	if v <= 0 || v >= 1 {
		Fail("invalid -%s %g: conductance target must be in (0,1)", name, v)
	}
}

// FaultSpec rejects a fault-injection spec that does not parse, quoting
// the parser's complaint.
func FaultSpec(name, spec string) {
	if _, err := faults.Parse(spec, 0); err != nil {
		Fail("invalid -%s %q: %v", name, spec, err)
	}
}

// Writable verifies that the output path for -name can be opened for
// writing, so a doomed export is caught before the run burns minutes. An
// empty path (the feature is off) passes. The probe appends nothing and
// removes any file it had to create.
func Writable(name, path string) {
	if path == "" {
		return
	}
	_, statErr := os.Stat(path)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		Fail("invalid -%s %q: not writable: %v", name, path, err)
	}
	f.Close()
	if statErr != nil {
		os.Remove(path)
	}
}

package cliutil

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"almostmix/internal/congest"
)

// parsed builds a harness on a private flag set and parses args into it.
func parsed(t *testing.T, backend bool, args ...string) *Harness {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	h := newHarness(fs, "test", "trace help")
	if backend {
		h.WithBackend()
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return h
}

// regularFile reports whether path is a non-empty regular file.
func regularFile(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && fi.Mode().IsRegular() && fi.Size() > 0
}

// TestRunExitPaths is the exit-path matrix: whatever goes wrong — the
// body, the trace export, the session close — every export that can
// still be written is written, the sink exists exactly when -trace or
// -metrics asks for one, and any failure exits 1. Export failures are
// induced by turning the (already probed) output path into a directory
// while the body runs.
func TestRunExitPaths(t *testing.T) {
	type outcome int
	const (
		bodyOK outcome = iota
		bodyError
		traceWriteError
		sessionCloseError
	)
	for _, withTrace := range []bool{false, true} {
		for _, withMetrics := range []bool{false, true} {
			for _, oc := range []outcome{bodyOK, bodyError, traceWriteError, sessionCloseError} {
				dir := t.TempDir()
				tracePath := filepath.Join(dir, "trace.json")
				metricsPath := filepath.Join(dir, "metrics.json")
				var args []string
				if withTrace {
					args = append(args, "-trace", tracePath)
				}
				if withMetrics {
					args = append(args, "-metrics", metricsPath)
				}
				h := parsed(t, false, args...)
				sinkWasNil := false
				code := withExitCapture(func() {
					h.Run(func() error {
						sinkWasNil = h.Sink() == nil
						if p := h.Probe("run"); p != nil {
							p.RunStart(congest.RunInfo{Nodes: 2})
							p.RoundEnd(&congest.RoundRecord{Round: 1, InboxSizes: []int{0, 0}})
						}
						switch oc {
						case bodyError:
							return errors.New("boom")
						case traceWriteError:
							os.Mkdir(tracePath, 0o755)
						case sessionCloseError:
							os.Mkdir(metricsPath, 0o755)
						}
						return nil
					})
				})
				failed := oc == bodyError || (oc == traceWriteError && withTrace) || (oc == sessionCloseError && withMetrics)
				wantCode := -1
				if failed {
					wantCode = 1
				}
				if code != wantCode {
					t.Errorf("trace=%v metrics=%v outcome=%d: exit %d, want %d", withTrace, withMetrics, oc, code, wantCode)
				}
				if sinkWasNil != (!withTrace && !withMetrics) {
					t.Errorf("trace=%v metrics=%v: sink nil = %v", withTrace, withMetrics, sinkWasNil)
				}
				if got, want := regularFile(tracePath), withTrace && oc != traceWriteError; got != want {
					t.Errorf("trace=%v metrics=%v outcome=%d: trace file present = %v, want %v", withTrace, withMetrics, oc, got, want)
				}
				if got, want := regularFile(metricsPath), withMetrics && oc != sessionCloseError; got != want {
					t.Errorf("trace=%v metrics=%v outcome=%d: metrics file present = %v, want %v", withTrace, withMetrics, oc, got, want)
				}
				if withTrace && oc == bodyError {
					if b, _ := os.ReadFile(tracePath); !strings.Contains(string(b), `"run": "run"`) {
						t.Errorf("metrics=%v: failed run's trace lacks the round collected before the error:\n%s", withMetrics, b)
					}
				}
			}
		}
	}
}

// TestTelemetryFlagValidation pins the -pprof rules as exit-2 flag errors
// raised before the body runs: an unknown mode, a profile path with no
// profile, and an unwritable effective path — explicit or defaulted.
func TestTelemetryFlagValidation(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no", "such", "dir")
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"no flags", nil, -1},
		{"heap profile to a writable path", []string{"-pprof", "heap", "-pprofout", filepath.Join(t.TempDir(), "h.pprof")}, -1},
		{"unknown mode", []string{"-pprof", "bogus"}, 2},
		{"pprofout without pprof", []string{"-pprofout", filepath.Join(t.TempDir(), "p.pprof")}, 2},
		{"unwritable pprofout", []string{"-pprof", "cpu", "-pprofout", filepath.Join(missing, "p.pprof")}, 2},
		{"unwritable trace", []string{"-trace", filepath.Join(missing, "t.json")}, 2},
		{"unwritable metrics", []string{"-metrics", filepath.Join(missing, "m.json")}, 2},
	}
	for _, c := range cases {
		h := parsed(t, false, c.args...)
		ran := false
		code := withExitCapture(func() {
			h.Run(func() error { ran = true; return nil })
		})
		if code != c.want {
			t.Errorf("%s: exit %d, want %d", c.name, code, c.want)
		}
		if ran != (c.want == -1) {
			t.Errorf("%s: body ran = %v", c.name, ran)
		}
	}

	// The default <mode>.pprof path is probed like an explicit one.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir("heap.pprof", 0o755); err != nil {
		t.Fatal(err)
	}
	h := parsed(t, false, "-pprof", "heap")
	if code := withExitCapture(func() { h.Run(func() error { return nil }) }); code != 2 {
		t.Errorf("unwritable default profile path: exit %d, want 2", code)
	}
}

// TestBackendFlagValidation: bad backend flags exit 2, good ones resolve
// to the backend they describe.
func TestBackendFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-transport", "bogus"},
		{"-workers", "-1"},
		{"-shards", "0"},
		{"-listen", "not-a-hostport"},
		{"-obsout", filepath.Join(t.TempDir(), "obs.json")}, // proc produces no obs document
		{"-transport", "tcp", "-tcpnode", filepath.Join(t.TempDir(), "no-such-tcpnode")},
	} {
		h := parsed(t, true, args...)
		if code := withExitCapture(func() { h.Run(func() error { return nil }) }); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}

	h := parsed(t, true, "-workers", "0")
	h.Run(func() error {
		if got := h.Transport().Name(); got != "proc" {
			t.Errorf("default backend is %q, want proc", got)
		}
		return nil
	})
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	h = parsed(t, true, "-transport", "tcp", "-shards", "3", "-tcpnode", self)
	h.Run(func() error {
		if got := h.Transport().Name(); got != "tcp" {
			t.Errorf("-transport tcp resolved to %q", got)
		}
		return nil
	})
}

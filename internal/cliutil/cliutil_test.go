package cliutil

import (
	"os"
	"path/filepath"
	"testing"
)

// withExitCapture replaces the exit hook and reports the code of the
// first exit taken during fn (or -1 if none). A panic unwinds past the
// rest of the validation under test, mimicking the real process exit.
func withExitCapture(fn func()) (code int) {
	code = -1
	exit = func(c int) {
		code = c
		panic("cliutil: exit")
	}
	defer func() {
		exit = os.Exit
		recover()
	}()
	fn()
	return code
}

func TestMin(t *testing.T) {
	if code := withExitCapture(func() { Min("n", 5, 1) }); code != -1 {
		t.Fatalf("valid value exited with %d", code)
	}
	if code := withExitCapture(func() { Min("n", 0, 1) }); code != 2 {
		t.Fatalf("invalid value exited with %d, want 2", code)
	}
	if code := withExitCapture(func() { Min("steps", -3, 0) }); code != 2 {
		t.Fatalf("negative steps exited with %d, want 2", code)
	}
}

// TestBeta: -beta 1 passed a plain minimum of 0 and then failed inside
// embed.Build, after the graph was built.
func TestBeta(t *testing.T) {
	for _, v := range []int{0, 2, 16} {
		if code := withExitCapture(func() { Beta("beta", v) }); code != -1 {
			t.Fatalf("beta=%d exited with %d", v, code)
		}
	}
	for _, v := range []int{1, -1} {
		if code := withExitCapture(func() { Beta("beta", v) }); code != 2 {
			t.Fatalf("beta=%d exited with %d, want 2", v, code)
		}
	}
}

// TestRegular: the degrees RandomRegular cannot serve (it would redraw
// forever on -d 1 above two nodes, and panic on n·d odd or d ≥ n) exit 2
// up front.
func TestRegular(t *testing.T) {
	for _, nd := range [][2]int{{8, 3}, {8, 2}, {2, 1}, {5, 4}} {
		if code := withExitCapture(func() { Regular(nd[0], nd[1]) }); code != -1 {
			t.Fatalf("-n %d -d %d exited with %d", nd[0], nd[1], code)
		}
	}
	for _, nd := range [][2]int{{8, 1}, {8, 0}, {2, 0}, {5, 3}, {4, 8}, {4, 4}, {8, -2}} {
		if code := withExitCapture(func() { Regular(nd[0], nd[1]) }); code != 2 {
			t.Fatalf("-n %d -d %d exited with %d, want 2", nd[0], nd[1], code)
		}
	}
}

func TestWorkers(t *testing.T) {
	for _, v := range []int{0, 1, 8} {
		if code := withExitCapture(func() { Workers("workers", v) }); code != -1 {
			t.Fatalf("workers=%d exited with %d", v, code)
		}
	}
	if code := withExitCapture(func() { Workers("workers", -1) }); code != 2 {
		t.Fatalf("workers=-1 exited with %d, want 2", code)
	}
}

func TestPhi(t *testing.T) {
	for _, v := range []float64{0.001, 0.1, 0.5, 0.999} {
		if code := withExitCapture(func() { Phi("phi", v) }); code != -1 {
			t.Fatalf("phi=%g exited with %d", v, code)
		}
	}
	for _, v := range []float64{0, -0.1, 1, 1.5} {
		if code := withExitCapture(func() { Phi("phi", v) }); code != 2 {
			t.Fatalf("phi=%g exited with %d, want 2", v, code)
		}
	}
}

func TestFaultSpec(t *testing.T) {
	for _, spec := range []string{"", "drop=0.1", "drop=0.05,dup=0.01,delay=0.1:3,crash=2@5+4,sever=1@2"} {
		if code := withExitCapture(func() { FaultSpec("faults", spec) }); code != -1 {
			t.Fatalf("spec %q exited with %d", spec, code)
		}
	}
	for _, spec := range []string{"drop", "drop=2.0", "bogus=1", "crash=x@y", "drop=NaN", "dup=nan", "delay=NaN:2"} {
		if code := withExitCapture(func() { FaultSpec("faults", spec) }); code != 2 {
			t.Fatalf("spec %q exited with %d, want 2", spec, code)
		}
	}
}

func TestWritable(t *testing.T) {
	dir := t.TempDir()

	if code := withExitCapture(func() { Writable("trace", "") }); code != -1 {
		t.Fatalf("empty path exited with %d", code)
	}

	// A creatable path passes and leaves no file behind.
	fresh := filepath.Join(dir, "out.json")
	if code := withExitCapture(func() { Writable("trace", fresh) }); code != -1 {
		t.Fatalf("creatable path exited with %d", code)
	}
	if _, err := os.Stat(fresh); !os.IsNotExist(err) {
		t.Fatal("probe left its scratch file behind")
	}

	// An existing file passes and keeps its contents.
	kept := filepath.Join(dir, "kept.json")
	if err := os.WriteFile(kept, []byte("data"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := withExitCapture(func() { Writable("metrics", kept) }); code != -1 {
		t.Fatalf("existing path exited with %d", code)
	}
	if b, err := os.ReadFile(kept); err != nil || string(b) != "data" {
		t.Fatalf("probe damaged the existing file: %q, %v", b, err)
	}

	// A path under a missing directory fails up front.
	if code := withExitCapture(func() { Writable("pprofout", filepath.Join(dir, "no/such/dir/p.pprof")) }); code != 2 {
		t.Fatalf("unwritable path exited with %d, want 2", code)
	}
}

package harness

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWriteFileRemovesHalfWrittenFile: an encode that writes some bytes
// and then fails must not leave the truncated document behind, whether
// the file is fresh or replaced an earlier complete one.
func TestWriteFileRemovesHalfWrittenFile(t *testing.T) {
	boom := errors.New("boom")
	partial := func(w io.Writer) error {
		if _, err := io.WriteString(w, `{"rounds": [`); err != nil {
			return err
		}
		return boom
	}
	dir := t.TempDir()
	fresh := filepath.Join(dir, "fresh.json")
	stale := filepath.Join(dir, "stale.json")
	if err := os.WriteFile(stale, []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{fresh, stale} {
		err := WriteFile(path, "trace", partial)
		if !errors.Is(err, boom) {
			t.Fatalf("%s: error %v does not wrap the encode error", path, err)
		}
		if want := "trace: write " + path; !strings.HasPrefix(err.Error(), want) {
			t.Fatalf("error %q lacks the %q prefix", err, want)
		}
		if _, serr := os.Stat(path); !os.IsNotExist(serr) {
			t.Fatalf("%s: half-written file left behind (stat: %v)", path, serr)
		}
	}
}

// TestWriteFileKeepsNonRegularTarget: a device that fails every write
// reports the error and is never removed.
func TestWriteFileKeepsNonRegularTarget(t *testing.T) {
	fi, err := os.Stat("/dev/full")
	if err != nil || fi.Mode().IsRegular() {
		t.Skip("/dev/full unavailable")
	}
	err = WriteFile("/dev/full", "trace", func(w io.Writer) error {
		_, werr := io.WriteString(w, "data")
		return werr
	})
	if err == nil {
		t.Fatal("writing to /dev/full reported success")
	}
	after, serr := os.Stat("/dev/full")
	if serr != nil || after.Mode()&os.ModeDevice == 0 {
		t.Fatalf("/dev/full no longer a device after the failed write (stat: %v)", serr)
	}
}

// TestWriteFileCreateError: a path that cannot be created fails with the
// prefix and the OS error (which names the path).
func TestWriteFileCreateError(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no", "such", "dir", "x.json")
	err := WriteFile(bad, "metrics", func(io.Writer) error { return nil })
	if err == nil || !strings.HasPrefix(err.Error(), "metrics: ") || !strings.Contains(err.Error(), bad) {
		t.Fatalf("create error %v lacks the prefix or the path", err)
	}
}

type twoForms struct{}

func (twoForms) WriteJSON(w io.Writer) error { _, err := io.WriteString(w, "json"); return err }
func (twoForms) WriteCSV(w io.Writer) error  { _, err := io.WriteString(w, "csv"); return err }

// TestWriteDocumentPicksEncodingByExtension: .json selects JSON, every
// other extension the CSV form.
func TestWriteDocumentPicksEncodingByExtension(t *testing.T) {
	dir := t.TempDir()
	for name, want := range map[string]string{"a.json": "json", "a.csv": "csv", "a": "csv"} {
		path := filepath.Join(dir, name)
		if err := WriteDocument(path, "trace", twoForms{}); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != want {
			t.Fatalf("%s holds %q (%v), want %q", name, got, err, want)
		}
	}
}

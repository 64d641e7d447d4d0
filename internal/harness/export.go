package harness

// File export shared by every artifact the binaries leave behind: the
// -trace file, the -metrics snapshot, the transport's -obsout document,
// flight-recorder dumps and the obsreport text. WriteFile is the only
// function in the tree that opens an export document for writing, so the
// error discipline (every create, encode and close error returned,
// wrapped with the path) and the cleanup rule (no truncated document left
// behind) are written once.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteFile creates path, hands it to encode and closes it, returning
// the first error wrapped as "<prefix>: …" with the path, so the cmd
// binaries can fold export failures into exit code 1. A regular file
// that could not be finished is removed — a half-written document reads
// as a valid-looking artifact of a run that never produced one. Devices
// and pipes are never removed: they are not ours (/dev/full must stay a
// device after failing the write).
func WriteFile(path, prefix string, encode func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("%s: %w", prefix, err)
	}
	fi, statErr := f.Stat()
	err = encode(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		if statErr == nil && fi.Mode().IsRegular() {
			os.Remove(path)
		}
		return fmt.Errorf("%s: write %s: %w", prefix, path, err)
	}
	return nil
}

// Document is an export with both on-disk encodings.
type Document interface {
	WriteJSON(w io.Writer) error
	WriteCSV(w io.Writer) error
}

// WriteDocument writes doc to path through WriteFile: JSON when the
// extension is .json, concatenated CSV tables otherwise.
func WriteDocument(path, prefix string, doc Document) error {
	encode := doc.WriteCSV
	if filepath.Ext(path) == ".json" {
		encode = doc.WriteJSON
	}
	return WriteFile(path, prefix, encode)
}

// WriteJSON writes v as one two-space-indented JSON document with a
// trailing newline, the form every JSON export uses.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// WriteCSV writes the tables as consecutive CSV blocks separated by
// blank lines.
func WriteCSV(w io.Writer, tables ...*Table) error {
	for i, tb := range tables {
		if i > 0 {
			if _, err := io.WriteString(w, "\n"); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, tb.CSV()); err != nil {
			return err
		}
	}
	return nil
}

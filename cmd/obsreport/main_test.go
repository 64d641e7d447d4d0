package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBenchJoinOnCommittedBaseline runs the -bench join on the document
// the repository commits: the rows the report promises must come out of
// the real almostmix-benchmark/v1 shape, not a hand-built fixture.
func TestBenchJoinOnCommittedBaseline(t *testing.T) {
	doc, err := readBench(filepath.Join("..", "..", "bench", "baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	benchJoin(&buf, doc)
	out := buf.String()
	for _, want := range []string{
		"== bench join ==",
		"bench document at git ",
		"tcp-msgs",
		"tcp-rounds",
		"sim_rounds_per_op",
		"transport.round_skew_p99_us",
		"transport.wire_bytes_per_msg",
		"faults.tcp_overhead_ratio",
		"congest.steady_allocs_per_round",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("bench join lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "build-expander") {
		t.Errorf("bench join lists a workload that never touches the wire:\n%s", out)
	}
}

// TestReadBenchRefusesRetiredSchema: a document of the retired
// cmd/benchsuite schema must be refused by name, not joined as empty.
func TestReadBenchRefusesRetiredSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_old.json")
	old := `{"schema": "almostmix-bench/v1", "git_sha": "2496f93", "cases": []}`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := readBench(path)
	if err == nil {
		t.Fatal("readBench accepted an almostmix-bench/v1 document")
	}
	if msg := err.Error(); !strings.Contains(msg, `bench schema "almostmix-bench/v1", want "almostmix-benchmark/v1"`) {
		t.Fatalf("refusal does not name both schemas: %v", err)
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// TestJSONGolden pins the full -json document — including the
// metrics and trace dump — against a checked-in golden file.  The
// simulation is deterministic, so any diff is a real behavior or
// format change; regenerate deliberately with
//
//	go test ./cmd/ibsim -run JSONGolden -update
func TestJSONGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run in -short mode")
	}
	p := experiments.Tiny()
	p.Metrics = true
	p.TraceEvents = 4

	var buf bytes.Buffer
	if err := emitJSON(&buf, p, "tiny"); err != nil {
		t.Fatal(err)
	}

	checkGolden(t, filepath.Join("testdata", "tiny.golden.json"), buf.Bytes())
}

// checkGolden compares got with the golden file, first rewriting the
// file from got under -update.
func checkGolden(t *testing.T, golden string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("JSON output diverged from %s (rerun with -update if intended)\ngot %d bytes, want %d",
			golden, len(got), len(want))
	}
}

// TestJSONShape decodes the emitted document and checks the fields
// scripts depend on, independent of formatting.
func TestJSONShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run in -short mode")
	}
	p := experiments.Tiny()
	p.Metrics = true
	p.TraceEvents = 4

	var buf bytes.Buffer
	if err := emitJSON(&buf, p, "tiny"); err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Scale   string `json:"scale"`
		Table2  []any  `json:"table2"`
		Metrics *struct {
			Small *struct {
				Counters struct {
					Picks int64 `json:"picks"`
				} `json:"counters"`
				Trace         []any  `json:"trace"`
				TraceRecorded uint64 `json:"traceRecorded"`
			} `json:"small"`
			Large *struct {
				Counters struct {
					Picks int64 `json:"picks"`
				} `json:"counters"`
			} `json:"large"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("emitted JSON does not parse: %v", err)
	}
	if rep.Scale != "tiny" || len(rep.Table2) != 2 {
		t.Fatalf("report header wrong: scale=%q table2=%d rows", rep.Scale, len(rep.Table2))
	}
	m := rep.Metrics
	if m == nil || m.Small == nil || m.Large == nil {
		t.Fatal("metrics dump missing despite -metrics")
	}
	if m.Small.Counters.Picks == 0 || m.Large.Counters.Picks == 0 {
		t.Errorf("no picks counted: small %d, large %d", m.Small.Counters.Picks, m.Large.Counters.Picks)
	}
	if len(m.Small.Trace) == 0 || len(m.Small.Trace) > 4 {
		t.Errorf("trace tail has %d events, want 1..4", len(m.Small.Trace))
	}
	if m.Small.TraceRecorded < uint64(len(m.Small.Trace)) {
		t.Errorf("recorded %d < retained %d", m.Small.TraceRecorded, len(m.Small.Trace))
	}
}

// TestJSONMetricsOmittedWhenDisabled: without -metrics the document
// must not grow a metrics key (scripts key off its presence).
func TestJSONMetricsOmittedWhenDisabled(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run in -short mode")
	}
	var buf bytes.Buffer
	if err := emitJSON(&buf, experiments.Tiny(), "tiny"); err != nil {
		t.Fatal(err)
	}
	var rep map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if _, present := rep["metrics"]; present {
		t.Error("metrics key present without -metrics")
	}
}

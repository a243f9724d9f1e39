package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeReport stores rep as a baseline file for compareReports.
func writeReport(t *testing.T, rep benchReport) string {
	t.Helper()
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "old.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func report(gomaxprocs int, rows ...benchEntry) benchReport {
	return benchReport{Workload: "wiki+rand", Bytes: 1 << 20, Seed: 1, GOMAXPROCS: gomaxprocs, Results: rows}
}

func TestRowKeyMatchesSerialRowsAcrossGOMAXPROCS(t *testing.T) {
	old := report(1, benchEntry{Name: "serial", MBPerS: 40, Ratio: 1.724, GOMAXPROCS: 1})
	cur := report(2, benchEntry{Name: "serial", MBPerS: 20, Ratio: 1.724, GOMAXPROCS: 2})
	if a, b := rowKey(&old, old.Results[0]), rowKey(&cur, cur.Results[0]); a != b {
		t.Fatalf("serial row keys differ across GOMAXPROCS: %q vs %q", a, b)
	}
	// Matched by name, the halved throughput is gated.
	err := compareReports(&cur, writeReport(t, old))
	if err == nil || !strings.Contains(err.Error(), "serial") {
		t.Fatalf("p2 serial row at half the p1 MB/s passed the gate: %v", err)
	}
	cur.Results[0].MBPerS = 39
	if err := compareReports(&cur, writeReport(t, old)); err != nil {
		t.Fatalf("p2 serial row within tolerance failed: %v", err)
	}
}

func TestCompareFailsOnRatioChange(t *testing.T) {
	old := report(2, benchEntry{Name: "serial_wiki_l6", MBPerS: 5, Ratio: 2.191})
	cur := report(2, benchEntry{Name: "serial_wiki_l6", MBPerS: 5, Ratio: 2.190})
	err := compareReports(&cur, writeReport(t, old))
	if err == nil || !strings.Contains(err.Error(), "ratio") {
		t.Fatalf("ratio change passed the gate: %v", err)
	}
	// A different corpus has different ratios; only throughput is gated.
	cur.Bytes *= 2
	if err := compareReports(&cur, writeReport(t, old)); err != nil {
		t.Fatalf("ratio gated across different corpora: %v", err)
	}
}

func TestRowKeySweepRowsKeepGOMAXPROCS(t *testing.T) {
	old := report(1,
		benchEntry{Name: "parallel", MBPerS: 20, Ratio: 2.272},                     // report-level p1
		benchEntry{Name: "parallel_dict", MBPerS: 40, Ratio: 2.275, GOMAXPROCS: 2}, // sweep point
	)
	cur := report(2,
		benchEntry{Name: "parallel", MBPerS: 40, Ratio: 2.272, GOMAXPROCS: 2},
		benchEntry{Name: "parallel_dict", MBPerS: 20, Ratio: 2.275, GOMAXPROCS: 1},
	)
	for i, want := range []string{"parallel@p1", "parallel_dict@p2"} {
		if got := rowKey(&old, old.Results[i]); got != want {
			t.Fatalf("old row %d key %q, want %q", i, got, want)
		}
	}
	// No key is shared, so neither row is gated against the other width.
	if err := compareReports(&cur, writeReport(t, old)); err != nil {
		t.Fatalf("sweep rows at different GOMAXPROCS were gated against each other: %v", err)
	}
	cur.Results[1].GOMAXPROCS = 2
	if err := compareReports(&cur, writeReport(t, old)); err == nil {
		t.Fatal("parallel_dict@p2 at half the baseline MB/s passed the gate")
	}
}

package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cormi/internal/harness"
)

// The CLI is exercised through run() against fixture files on disk —
// the same path `make verify-perf` takes — with special attention to
// baselines and fresh reports whose row sets disagree.

func writeReport(t *testing.T, dir, name string, r *harness.BenchReport) string {
	t.Helper()
	data, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func row(table, level string, ns, allocs float64) harness.BenchRow {
	return harness.BenchRow{Table: table, Level: level, Iters: 100, NsPerOp: ns, BPerOp: 8, AllocsPerOp: allocs}
}

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb strings.Builder
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestIdenticalReportsPass(t *testing.T) {
	dir := t.TempDir()
	r := &harness.BenchReport{GoVersion: "go1.24.0", Rows: []harness.BenchRow{
		row("table1_linkedlist", "site", 1000, 0),
		row("table2_array2d", "site", 2000, 3),
	}}
	base := writeReport(t, dir, "base.json", r)
	cur := writeReport(t, dir, "cur.json", r)
	code, stdout, stderr := runCLI(t, base, cur)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "2 rows OK") {
		t.Fatalf("stdout = %q", stdout)
	}
}

func TestMissingRowInFreshReportFails(t *testing.T) {
	// A row present in the committed baseline but absent from the
	// fresh run means a workload silently stopped being measured —
	// that must fail, not pass by vacuity.
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", &harness.BenchReport{Rows: []harness.BenchRow{
		row("table1_linkedlist", "site", 1000, 0),
		row("table2_array2d", "site", 2000, 3),
	}})
	cur := writeReport(t, dir, "cur.json", &harness.BenchReport{Rows: []harness.BenchRow{
		row("table1_linkedlist", "site", 1000, 0),
	}})
	code, _, stderr := runCLI(t, base, cur)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "table2_array2d/site: missing from new report") {
		t.Fatalf("stderr does not name the missing row: %s", stderr)
	}
}

func TestExtraRowInFreshReportPasses(t *testing.T) {
	// New workloads appear in fresh reports before the baseline is
	// regenerated; they are additions, not regressions.
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", &harness.BenchReport{Rows: []harness.BenchRow{
		row("table1_linkedlist", "site", 1000, 0),
	}})
	cur := writeReport(t, dir, "cur.json", &harness.BenchReport{Rows: []harness.BenchRow{
		row("table1_linkedlist", "site", 1000, 0),
		row("table9_new_workload", "site", 123456, 99),
	}})
	code, _, stderr := runCLI(t, base, cur)
	if code != 0 {
		t.Fatalf("exit %d (extra row treated as regression?); stderr: %s", code, stderr)
	}
}

func TestNsRegressionFails(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", &harness.BenchReport{Rows: []harness.BenchRow{
		row("table1_linkedlist", "site", 1000, 0),
	}})
	cur := writeReport(t, dir, "cur.json", &harness.BenchReport{Rows: []harness.BenchRow{
		row("table1_linkedlist", "site", 1200, 0), // +20% > default 10%
	}})
	code, _, stderr := runCLI(t, base, cur)
	if code != 1 || !strings.Contains(stderr, "ns/op") {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	// The same pair passes with a loosened tolerance flag.
	code, _, stderr = runCLI(t, "-ns-tol", "0.5", base, cur)
	if code != 0 {
		t.Fatalf("loosened tolerance still fails: exit %d, %s", code, stderr)
	}
}

func TestMalformedAndMissingInputs(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	good := writeReport(t, dir, "good.json", &harness.BenchReport{Rows: []harness.BenchRow{
		row("table1_linkedlist", "site", 1000, 0),
	}})

	if code, _, stderr := runCLI(t, bad, good); code != 2 || !strings.Contains(stderr, "bad.json") {
		t.Fatalf("malformed baseline: exit %d, stderr: %s", code, stderr)
	}
	if code, _, _ := runCLI(t, good, filepath.Join(dir, "nope.json")); code != 2 {
		t.Fatalf("missing file should exit 2, got %d", code)
	}
	if code, _, stderr := runCLI(t, good); code != 2 || !strings.Contains(stderr, "usage") {
		t.Fatalf("one arg: exit %d, stderr: %s", code, stderr)
	}
}

func TestBaselineWithPhaseLatencySectionStillParses(t *testing.T) {
	// Reports written with -trace carry a phase_latency section; the
	// comparison must ignore it (and old baselines without it).
	dir := t.TempDir()
	withPhases := filepath.Join(dir, "phases.json")
	if err := os.WriteFile(withPhases, []byte(`{
		"go_version": "go1.24.0",
		"rows": [{"table":"table1_linkedlist","level":"site","iters":100,"ns_per_op":1000,"b_per_op":8,"allocs_per_op":0}],
		"phase_latency": [{"site":"Micro.send.1","phase":"execute","count":10,"mean_ns":5,"p50_ns":4,"p95_ns":9,"p99_ns":11}]
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	plain := writeReport(t, dir, "plain.json", &harness.BenchReport{Rows: []harness.BenchRow{
		row("table1_linkedlist", "site", 1000, 0),
	}})
	if code, _, stderr := runCLI(t, withPhases, plain); code != 0 {
		t.Fatalf("phase_latency baseline vs plain: exit %d, %s", code, stderr)
	}
	if code, _, stderr := runCLI(t, plain, withPhases); code != 0 {
		t.Fatalf("plain baseline vs phase_latency: exit %d, %s", code, stderr)
	}
}

func TestUnknownSectionsAreTolerated(t *testing.T) {
	// Reports now carry a decisions section (the per-workload explain
	// reports), and future runs may add more. benchdiff compares rows
	// only; a report with sections this binary has never heard of must
	// still parse and diff cleanly in either position — that forward
	// compatibility is what lets baselines and tools be regenerated on
	// independent schedules.
	dir := t.TempDir()
	withExtras := filepath.Join(dir, "extras.json")
	if err := os.WriteFile(withExtras, []byte(`{
		"go_version": "go1.24.0",
		"rows": [{"table":"table1_linkedlist","level":"site","iters":100,"ns_per_op":1000,"b_per_op":8,"allocs_per_op":0}],
		"decisions": [{"schema":"cormi-explain/1","source":"table1_linkedlist","sites":[]}],
		"future_section": {"nested": [1, 2, {"deep": true}]}
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	plain := writeReport(t, dir, "plain.json", &harness.BenchReport{Rows: []harness.BenchRow{
		row("table1_linkedlist", "site", 1000, 0),
	}})
	if code, _, stderr := runCLI(t, withExtras, plain); code != 0 {
		t.Fatalf("decisions+unknown baseline vs plain: exit %d, %s", code, stderr)
	}
	if code, _, stderr := runCLI(t, plain, withExtras); code != 0 {
		t.Fatalf("plain baseline vs decisions+unknown: exit %d, %s", code, stderr)
	}

	// Baselines from before the summary cache was removed carry warm-run
	// keys in their cost section. They must still decode, and their cost
	// section must still compare against a current one.
	staleCost := filepath.Join(dir, "stale_cost.json")
	if err := os.WriteFile(staleCost, []byte(`{
		"rows": [{"table":"table1_linkedlist","level":"site","iters":100,"ns_per_op":1000,"b_per_op":8,"allocs_per_op":0}],
		"cost": {"corpus": "gen(seed=404,components=30,funcs=10)", "functions": 360, "sccs": 330,
			"components": 30, "waves": 8, "contexts": 329, "nodes": 210, "strong_kills": 0,
			"iterations": 3, "budget_fallbacks": 0, "cold_wall_ns": 14120253,
			"warm_wall_ns": 6688310, "warm_cache_hits": 29, "warm_funcs_analyzed": 12,
			"reanalyzed_fraction": 0.03333333333333333}
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	current := &harness.BenchReport{
		Rows: []harness.BenchRow{row("table1_linkedlist", "site", 1000, 0)},
		Cost: &harness.CostRow{Corpus: "gen(seed=404,components=30,funcs=10)", Functions: 360, SCCs: 330,
			Components: 30, Waves: 8, Contexts: 329, Nodes: 210, Iterations: 3, ColdWallNS: 14120253},
	}
	withCost := writeReport(t, dir, "cost.json", current)
	if code, _, stderr := runCLI(t, staleCost, withCost); code != 0 {
		t.Fatalf("stale cost baseline vs current: exit %d, %s", code, stderr)
	}
	current.Cost.Nodes++
	drifted := writeReport(t, dir, "drifted.json", current)
	if code, _, stderr := runCLI(t, staleCost, drifted); code != 1 || !strings.Contains(stderr, "cost: nodes 210 -> 211") {
		t.Fatalf("stale cost baseline vs drifted counter: exit %d, %s", code, stderr)
	}
}

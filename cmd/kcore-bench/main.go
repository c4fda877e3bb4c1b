// Command kcore-bench regenerates the paper's tables and figures on the
// synthetic dataset analogs (DESIGN.md §4 maps each experiment to its
// driver; EXPERIMENTS.md records measured outputs).
//
// Usage:
//
//	kcore-bench                                 run every experiment
//	kcore-bench -experiment table2 -edges 2000  one experiment, custom size
//	kcore-bench -datasets facebook-sim,ca-sim   restrict datasets
//	kcore-bench -experiment hotpath -json out.json   machine-readable results
//	kcore-bench -experiment parallel -json BENCH_parallel.json
//	kcore-bench -experiment serve2 -fanout 100,1000,10000 -json BENCH_serve.json
//	kcore-bench -compare OLD.json,NEW.json -compare-name engine/apply-batch -max-ratio 1.2
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"kcore"
	"kcore/internal/bench"
	"kcore/internal/datasets"
	"kcore/internal/gen"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment name: all|parallel|serve2|persist|replicate|chaos|readpath|"+strings.Join(bench.ExperimentNames, "|"))
		edges      = flag.Int("edges", 10000, "workload edges per dataset (paper: 100000)")
		groups     = flag.Int("groups", 10, "stability-test groups (paper: 100)")
		hops       = flag.String("hops", "2,3,4,5,6", "traversal hop variants")
		seed       = flag.Uint64("seed", 42, "RNG seed")
		dsNames    = flag.String("datasets", "", "comma-separated dataset subset (default: all 11)")
		jsonPath   = flag.String("json", "", "write the measured results (hotpath, parallel, serve2, persist, replicate, chaos and readpath experiments) as one JSON document to this path, replacing it")
		compare    = flag.String("compare", "", "regression guard: OLD.json,NEW.json — compare the -compare-name result and exit 1 when NEW exceeds OLD by more than -max-ratio")
		cmpName    = flag.String("compare-name", "engine/apply-batch", "result name checked by -compare")
		maxRatio   = flag.Float64("max-ratio", 1.2, "largest allowed NEW/OLD ns-per-op ratio for -compare")
		fanout     = flag.String("fanout", "100,1000,10000", "watcher tiers the serve2 fan-out sweep runs")
		minSpeedup = flag.Float64("min-speedup", 0, "speedup guard: serve2 fails unless binary ingest beats JSON by this factor; readpath fails unless epoch reads beat locked reads by it (0 = off)")
	)
	flag.Parse()

	if *compare != "" {
		if err := compareReports(*compare, *cmpName, *maxRatio); err != nil {
			fatal(err)
		}
		return
	}

	cfg := bench.Config{
		Out:    os.Stdout,
		Edges:  *edges,
		Groups: *groups,
		Seed:   *seed,
	}
	for _, h := range strings.Split(*hops, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(h))
		if err != nil || v < 2 {
			fatal(fmt.Errorf("bad hop value %q", h))
		}
		cfg.Hops = append(cfg.Hops, v)
	}
	if *dsNames != "" {
		for _, name := range strings.Split(*dsNames, ",") {
			d, err := datasets.ByName(strings.TrimSpace(name))
			if err != nil {
				fatal(err)
			}
			cfg.Datasets = append(cfg.Datasets, d)
		}
	}

	report := bench.NewReport()

	switch *experiment {
	case "parallel":
		fmt.Println("=== parallel ===")
		report.Results = append(report.Results, parallelExperiment(cfg)...)
		writeReport(report, *jsonPath)
		return
	case "serve2":
		var tiers []int
		for _, f := range strings.Split(*fanout, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || v < 1 {
				fatal(fmt.Errorf("bad fanout tier %q", f))
			}
			tiers = append(tiers, v)
		}
		report.Results = append(report.Results, serve2Experiment(cfg, tiers, *minSpeedup)...)
		writeReport(report, *jsonPath)
		return
	case "persist":
		report.Results = append(report.Results, persistExperiment(cfg)...)
		writeReport(report, *jsonPath)
		return
	case "replicate":
		report.Results = append(report.Results, replicateExperiment(cfg)...)
		writeReport(report, *jsonPath)
		return
	case "chaos":
		fmt.Println("=== chaos ===")
		report.Results = append(report.Results, chaosExperiment(cfg)...)
		writeReport(report, *jsonPath)
		return
	case "readpath":
		fmt.Println("=== readpath ===")
		report.Results = append(report.Results, readpathExperiment(cfg, *minSpeedup)...)
		writeReport(report, *jsonPath)
		return
	case "hotpath":
		fmt.Println("=== hotpath ===")
		report.Results = append(report.Results, bench.Hotpath(cfg)...)
		report.Results = append(report.Results, engineHotpath(*edges, *seed)...)
		writeReport(report, *jsonPath)
		return
	}

	names := bench.ExperimentNames
	if *experiment != "all" {
		if _, ok := bench.Experiments[*experiment]; !ok {
			fatal(fmt.Errorf("unknown experiment %q (valid: all, parallel, serve2, persist, replicate, chaos, readpath, %s)",
				*experiment, strings.Join(bench.ExperimentNames, ", ")))
		}
		names = []string{*experiment}
	}
	for _, name := range names {
		fmt.Printf("=== %s ===\n", name)
		if name == "hotpath" {
			// Capture hotpath's structured results instead of the
			// registry's discard-results wrapper.
			report.Results = append(report.Results, bench.Hotpath(cfg)...)
			report.Results = append(report.Results, engineHotpath(*edges, *seed)...)
			continue
		}
		bench.Experiments[name](cfg)
	}
	writeReport(report, *jsonPath)
}

// writeReport writes the JSON document when -json was given. An empty
// result list still produces a valid (schema-stamped) report.
func writeReport(r *bench.Report, path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := r.Write(f); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %d results to %s\n", len(r.Results), path)
}

// engineHotpath measures the public-API hot path (Apply over a 10k-edge
// batch and the per-edge loop) with allocation counters; the maintainer-
// and structure-level experiments live in internal/bench.
func engineHotpath(edges int, seed uint64) []bench.Result {
	g := gen.BarabasiAlbert(max(edges/3, 100), 4, seed)
	all := g.Edges()
	if len(all) > edges {
		all = all[:edges]
	}
	batch := make(kcore.Batch, len(all))
	for i, ed := range all {
		batch[i] = kcore.Add(ed[0], ed[1])
	}
	params := map[string]any{"edges": len(all), "graph": "barabasi-albert", "seed": seed}

	var results []bench.Result
	run := func(name string, fn func(b *testing.B)) {
		results = append(results, bench.RunMeasured(os.Stdout, name, params, fn))
	}
	run("engine/apply-batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			e := kcore.NewEngine()
			b.StartTimer()
			if _, err := e.Apply(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	run("engine/per-edge-add", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			e := kcore.NewEngine()
			b.StartTimer()
			for _, ed := range all {
				if _, err := e.AddEdge(ed[0], ed[1]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	return results
}

// compareReports is the CI regression guard: it loads two BENCH_*.json
// reports ("old,new"), finds the named result in each, and fails when the
// new ns/op exceeds the old by more than maxRatio. Both reports must come
// from the same machine for the ratio to mean anything — CI compares the
// committed baseline files, which were measured together.
func compareReports(spec, name string, maxRatio float64) error {
	parts := strings.Split(spec, ",")
	if len(parts) != 2 {
		return fmt.Errorf("-compare wants OLD.json,NEW.json, got %q", spec)
	}
	oldPath, newPath := strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1])
	oldRes, err := loadReport(oldPath)
	if err != nil {
		return err
	}
	newRes, err := loadReport(newPath)
	if err != nil {
		return err
	}
	o, ok := oldRes[name]
	if !ok {
		return fmt.Errorf("result %q is missing from %s (have: %s)",
			name, oldPath, strings.Join(resultNames(oldRes), ", "))
	}
	n, ok := newRes[name]
	if !ok {
		return fmt.Errorf("result %q is missing from %s (have: %s)",
			name, newPath, strings.Join(resultNames(newRes), ", "))
	}
	if o.NsPerOp <= 0 {
		return fmt.Errorf("%s: old ns/op %.0f is not positive", name, o.NsPerOp)
	}
	ratio := n.NsPerOp / o.NsPerOp
	fmt.Printf("%s: old %.0f ns/op, new %.0f ns/op, ratio %.3f (limit %.2f)\n",
		name, o.NsPerOp, n.NsPerOp, ratio, maxRatio)
	if ratio > maxRatio {
		return fmt.Errorf("%s regressed: ratio %.3f exceeds %.2f", name, ratio, maxRatio)
	}
	return nil
}

// reportHint names the expected baseline schema and how to regenerate the
// file; every loadReport failure carries it so a missing or malformed
// baseline is actionable instead of a raw unmarshal message.
func reportHint(path string) string {
	return fmt.Sprintf("%s must be a kcore-bench JSON report (schema %q, shape "+
		`{"schema":%q,"go":...,"arch":...,"results":[{"name":...,"ns_per_op":...}]}); `+
		"regenerate it with: go run ./cmd/kcore-bench -experiment <name> -json %s",
		path, bench.ReportSchema, bench.ReportSchema, path)
}

// loadReport reads one BENCH_*.json report into a name-indexed result map,
// explaining exactly what is wrong (and how to fix it) on failure.
func loadReport(path string) (map[string]bench.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("baseline report %s does not exist; %s", path, reportHint(path))
		}
		return nil, fmt.Errorf("open baseline report: %w; %s", err, reportHint(path))
	}
	defer f.Close()
	var rep bench.Report
	if err := json.NewDecoder(f).Decode(&rep); err != nil {
		return nil, fmt.Errorf("%s is not valid JSON (%v); %s", path, err, reportHint(path))
	}
	if rep.Schema != bench.ReportSchema {
		return nil, fmt.Errorf("%s has schema %q, want %q; %s",
			path, rep.Schema, bench.ReportSchema, reportHint(path))
	}
	if len(rep.Results) == 0 {
		return nil, fmt.Errorf("%s contains no results; %s", path, reportHint(path))
	}
	byName := make(map[string]bench.Result, len(rep.Results))
	for _, r := range rep.Results {
		byName[r.Name] = r
	}
	return byName, nil
}

// resultNames lists a report's result names, sorted, for error messages.
func resultNames(m map[string]bench.Result) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kcore-bench:", err)
	os.Exit(1)
}

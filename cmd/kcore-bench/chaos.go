package main

import (
	"fmt"
	"sort"

	"kcore/internal/bench"
	"kcore/internal/chaos"
)

// chaosSeeds is how many seeded chaos runs the experiment aggregates
// (seeds cfg.Seed .. cfg.Seed+chaosSeeds-1).
const chaosSeeds = 5

// chaosExperiment runs the seeded chaos soak (internal/chaos) across
// several seeds and reports the two headline resilience numbers: write
// availability under the fault schedule and the median degraded→healthy
// recovery time. Every run must pass the harness's invariants (healthz
// liveness, exact write classification, follower convergence, bit-identical
// recovery) — a violated invariant fails the experiment, it does not
// produce a degraded number.
func chaosExperiment(cfg bench.Config) []bench.Result {
	cfg = cfg.WithDefaults()

	var (
		writes, applied, persistFailed  int
		probes, failures                int
		degradations, recoveries        int
		panics                          uint64
		recoveryMS                      []float64
		minAvailability                 = 1.0
		totalElapsedMS, totalFinalEdges float64
	)
	for i := 0; i < chaosSeeds; i++ {
		seed := cfg.Seed + uint64(i)
		rep, err := chaos.Run(chaos.Config{Seed: seed})
		if err != nil {
			fatal(fmt.Errorf("chaos experiment: seed %d violated an invariant: %w (report: %+v)", seed, err, rep))
		}
		fmt.Fprintf(cfg.Out, "chaos seed %d: %d writes, %.2f%% available, %d degradations, median recovery %.1fms, %d panics contained, final seq %d\n",
			seed, rep.Writes, 100*rep.WriteAvailability, rep.Degradations,
			rep.MedianRecoveryMS, rep.EnginePanics, rep.FinalSeq)
		writes += rep.Writes
		applied += rep.Applied
		persistFailed += rep.PersistFailed
		probes += rep.HealthzProbes
		failures += rep.HealthzFailures
		degradations += rep.Degradations
		recoveries += rep.Recoveries
		panics += rep.EnginePanics
		recoveryMS = append(recoveryMS, rep.RecoveryMS...)
		if rep.Writes > 0 && rep.WriteAvailability < minAvailability {
			minAvailability = rep.WriteAvailability
		}
		totalElapsedMS += rep.ElapsedMS
		totalFinalEdges += float64(rep.FinalEdges)
	}

	availability := 0.0
	if writes > 0 {
		availability = float64(applied) / float64(writes)
	}
	sort.Float64s(recoveryMS)
	medianMS, maxMS := 0.0, 0.0
	if n := len(recoveryMS); n > 0 {
		medianMS = recoveryMS[n/2]
		maxMS = recoveryMS[n-1]
	}

	return []bench.Result{
		{
			// NsPerOp here is the availability fraction, not a duration —
			// the unit param spells it out. The regression guard compares
			// named results, so the unconventional unit stays local.
			Name:       "chaos/write-availability",
			NsPerOp:    availability,
			Iterations: writes,
			Params: bench.StampParams(map[string]any{
				"unit":              "fraction of write batches acked applied (NOT ns)",
				"seeds":             chaosSeeds,
				"first_seed":        cfg.Seed,
				"writes":            writes,
				"applied":           applied,
				"persist_failed":    persistFailed,
				"min_seed_avail":    minAvailability,
				"healthz_probes":    probes,
				"healthz_failures":  failures,
				"panics_contained":  panics,
				"mean_final_edges":  totalFinalEdges / chaosSeeds,
				"mean_run_ms":       totalElapsedMS / chaosSeeds,
				"episodes_per_seed": 12,
			}),
		},
		{
			Name:       "chaos/recovery-median",
			NsPerOp:    medianMS * 1e6,
			Iterations: recoveries,
			Params: bench.StampParams(map[string]any{
				"unit":         "median degraded→healthy recovery (ns)",
				"median_ms":    medianMS,
				"max_ms":       maxMS,
				"degradations": degradations,
				"recoveries":   recoveries,
			}),
		},
	}
}

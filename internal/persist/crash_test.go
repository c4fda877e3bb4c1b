package persist

import (
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"kcore"
	"kcore/internal/gen"
)

// TestCrashRecoveryDifferential is the durability acceptance test: an
// engine applies a stream of churn batches with the WAL enabled, the
// process is "killed" at 100 randomized points — both at record boundaries
// (a crash between appends) and mid-record (a torn write, simulated by a
// truncated copy of the WAL) — and every recovery must reconstruct the
// exact state the uninterrupted engine had at that point: identical core
// numbers, identical maintained k-order, identical Seq().
func TestCrashRecoveryDifferential(t *testing.T) {
	const (
		batches   = 50
		batchSize = 10
		trials    = 100
	)
	dir := t.TempDir()
	init := func() (*kcore.Engine, error) {
		return kcore.FromEdges(gen.BarabasiAlbert(120, 3, 41).Edges())
	}
	st, err := Open(dir, Options{Sync: SyncOff, CompactBytes: -1, Init: init})
	if err != nil {
		t.Fatal(err)
	}
	e := st.Engine()

	// The uninterrupted run, with the observable state and the WAL record
	// boundary recorded after every batch. boundaries[i] is the WAL size
	// with exactly i records; states[i] is the engine state at that point.
	states := make([]*kcore.IndexState, 0, batches+1)
	boundaries := make([]int64, 0, batches+1)
	record := func() {
		s := e.Index()
		states = append(states, s)
		boundaries = append(boundaries, st.Stats().WALBytes)
	}
	record()
	// One batch of 360 churn updates, 274 of which survive coalescing:
	// above the engine's 256-update floor and its 0.15·(m+n) fraction on
	// this graph, so it is applied, and replayed by recovery, by wholesale
	// recomputation, whose k-order can differ from per-update maintenance's.
	info, err := e.Apply(churnBatches(t, e, 1, 360, 4321)[0])
	if err != nil {
		t.Fatal(err)
	}
	if !info.Recomputed {
		t.Fatalf("batch of %d surviving updates was not recomputed", info.Applied)
	}
	record()
	stream := churnBatches(t, e, batches-6, batchSize, 1234)
	for _, b := range stream {
		if _, err := e.Apply(b); err != nil {
			t.Fatal(err)
		}
		record()
	}
	// A few batches with intra-batch coalescing, so WAL records carry
	// surviving updates rather than raw batches.
	for i := 0; i < 5; i++ {
		u := 200 + 2*i
		b := kcore.Batch{kcore.Add(u, u+1), kcore.Add(0, u), kcore.Remove(u, u+1)}
		if _, err := e.Apply(b); err != nil {
			t.Fatal(err)
		}
		record()
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	snapData, err := os.ReadFile(filepath.Join(dir, SnapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	walData, err := os.ReadFile(filepath.Join(dir, WALFile))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := boundaries[len(boundaries)-1], int64(len(walData)); got != want {
		t.Fatalf("recorded final boundary %d != WAL size %d", got, want)
	}

	rng := rand.New(rand.NewPCG(77, 78))
	for trial := 0; trial < trials; trial++ {
		// Half the trials kill exactly at a record boundary, half tear the
		// last record by cutting strictly inside it.
		j := 1 + rng.IntN(batches) // batch whose record the kill lands in/after
		cut := boundaries[j]
		torn := trial%2 == 1
		if torn {
			lo, hi := boundaries[j-1], boundaries[j]
			cut = lo + 1 + rng.Int64N(hi-lo-1) // strictly mid-record
			j--                                // the torn record is lost
		}

		crashDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(crashDir, SnapshotFile), snapData, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crashDir, WALFile), walData[:cut], 0o644); err != nil {
			t.Fatal(err)
		}

		rst, err := Open(crashDir, Options{Sync: SyncOff, CompactBytes: -1})
		if err != nil {
			t.Fatalf("trial %d (cut %d, torn %v): recovery failed: %v", trial, cut, torn, err)
		}
		want := states[j]
		got := rst.Engine().Index()
		if got.Seq != want.Seq {
			t.Fatalf("trial %d (cut %d, torn %v): recovered seq %d, want %d",
				trial, cut, torn, got.Seq, want.Seq)
		}
		if !slices.Equal(got.Cores, want.Cores) {
			t.Fatalf("trial %d (cut %d, torn %v): recovered core numbers differ at seq %d",
				trial, cut, torn, want.Seq)
		}
		if !slices.Equal(got.Order, want.Order) {
			t.Fatalf("trial %d (cut %d, torn %v): recovered k-order differs at seq %d",
				trial, cut, torn, want.Seq)
		}
		stats := rst.Stats()
		if torn && stats.TornBytes == 0 {
			t.Fatalf("trial %d: mid-record cut %d reported no torn tail", trial, cut)
		}
		if !torn && stats.TornBytes != 0 {
			t.Fatalf("trial %d: boundary cut %d reported torn tail of %d bytes",
				trial, cut, stats.TornBytes)
		}
		// Every 10th trial: the recovered store keeps working — the full
		// invariant check passes and new batches append and recover.
		if trial%10 == 0 {
			if err := rst.Engine().Validate(); err != nil {
				t.Fatalf("trial %d: recovered engine invalid: %v", trial, err)
			}
			if _, err := rst.Engine().AddEdge(500, 501); err != nil {
				t.Fatalf("trial %d: post-recovery apply: %v", trial, err)
			}
			if got := rst.Stats().WALRecords; got == 0 {
				t.Fatalf("trial %d: post-recovery append not logged", trial)
			}
		}
		if err := rst.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

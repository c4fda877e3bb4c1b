package kcore

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentReadersDuringWrites drives the v1 concurrency contract
// under -race: one writer goroutine streams batches through Apply while
// reader goroutines hammer every query classification (point queries,
// bulk queries, views) and a subscriber drains change events.
func TestConcurrentReadersDuringWrites(t *testing.T) {
	e := NewEngine()
	if _, err := e.AddEdges([][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}}); err != nil {
		t.Fatal(err)
	}

	ch, cancel := e.Subscribe(WithBuffer(256))
	done := make(chan struct{})
	var reads atomic.Int64
	var wg sync.WaitGroup

	// Writer: the only mutator, so it can track edge presence locally and
	// build always-valid mixed batches.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		rng := rand.New(rand.NewPCG(5, 1))
		present := map[[2]int]bool{
			{0, 1}: true, {1, 2}: true, {0, 2}: true, {2, 3}: true, {3, 4}: true,
		}
		for step := 0; step < 400; step++ {
			var batch Batch
			used := map[[2]int]bool{}
			for len(batch) < 4 {
				u, v := rng.IntN(40), rng.IntN(40)
				if u == v {
					continue
				}
				key := [2]int{min(u, v), max(u, v)}
				if used[key] {
					continue
				}
				used[key] = true
				if present[key] {
					batch = append(batch, Remove(u, v))
					present[key] = false
				} else {
					batch = append(batch, Add(u, v))
					present[key] = true
				}
			}
			if _, err := e.Apply(batch); err != nil {
				t.Errorf("Apply: %v", err)
				return
			}
		}
	}()

	// Readers: every query method classified as a reader.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(r), 7))
			for stop := false; !stop; {
				select {
				case <-done:
					stop = true // finish this pass, then exit
				default:
				}
				v := rng.IntN(40)
				_ = e.Core(v)
				_ = e.Degree(v)
				_ = e.Neighbors(v)
				_ = e.HasEdge(v, (v+1)%40)
				switch rng.IntN(4) {
				case 0:
					_ = e.Cores()
					_ = e.Degeneracy()
				case 1:
					_ = e.KCore(2)
					_ = e.Edges()
				case 2:
					view := e.View()
					if view.Core(v) > view.Degeneracy() {
						t.Error("view internally inconsistent")
						return
					}
				case 3:
					_ = e.Community(v, 2)
					_ = e.CoreComponents(2)
				}
				reads.Add(1)
			}
		}(r)
	}

	// Subscriber: drains events until the writer finishes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-ch:
			case <-done:
				return
			}
		}
	}()

	wg.Wait()
	cancel()
	if reads.Load() == 0 {
		t.Fatal("readers never ran")
	}
	// 5 seed updates + 400 batches of 4.
	if e.Seq() != 1605 {
		t.Fatalf("Seq = %d, want 1605", e.Seq())
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentViews takes snapshots while the graph churns and checks
// each one for internal consistency (degeneracy matches its own cores).
func TestConcurrentViews(t *testing.T) {
	e := NewEngine()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < 200; i++ {
			if _, err := e.Apply(Batch{Add(i, i+1), Add(i, i+2)}); err != nil {
				t.Errorf("Apply: %v", err)
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := e.View()
				maxc := 0
				for _, c := range v.Cores() {
					if c > maxc {
						maxc = c
					}
				}
				if maxc != v.Degeneracy() {
					t.Errorf("view degeneracy %d, cores say %d", v.Degeneracy(), maxc)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
}

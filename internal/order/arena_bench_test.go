package order

import (
	"math/rand/v2"
	"testing"
)

// Insertion-churn benchmarks: the same treap algorithm on the arena layout
// versus the previous pointer-node + map layout (ptrTreap, reference_test),
// plus the container/list baseline. The workload mimics order maintenance:
// grow a window, then slide it with one Remove and one interior InsertAfter
// per step.

func churn(b *testing.B, l List) {
	const window = 1024
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i < window {
			l.PushBack(i)
			continue
		}
		l.Remove(i - window)
		l.InsertAfter(i-1, i)
	}
}

func BenchmarkOrderInsertArena(b *testing.B)   { churn(b, NewTreap(1)) }
func BenchmarkOrderInsertPointer(b *testing.B) { churn(b, newPtrTreap(1)) }

func BenchmarkOrderInsertArenaTagList(b *testing.B) { churn(b, NewTagList()) }
func BenchmarkOrderInsertPtrList(b *testing.B)      { churn(b, newPtrList()) }

// BenchmarkOrderMigrate measures the korder level-migration pattern: moving
// vertices back and forth between two lists sharing one arena (each vertex
// keeps its own node, no allocation in steady state).
func BenchmarkOrderMigrate(b *testing.B) {
	const n = 1024
	a := NewArena()
	lo := NewTreapOn(a, 1)
	hi := NewTreapOn(a, 2)
	for v := 0; v < n; v++ {
		lo.PushBack(v)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := rng.IntN(n)
		if lo.Contains(v) {
			lo.Remove(v)
			hi.PushFront(v)
		} else {
			hi.Remove(v)
			lo.PushBack(v)
		}
	}
}

func BenchmarkOrderRankArena(b *testing.B) {
	tr := NewTreap(1)
	for i := 0; i < 100000; i++ {
		tr.PushBack(i)
	}
	rng := rand.New(rand.NewPCG(1, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tr.Rank(rng.IntN(100000))
	}
}

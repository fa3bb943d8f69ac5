package sim

import "testing"

// TestRingFIFOAcrossWrapAndGrowth pushes and pops in uneven rounds so the
// ring wraps and then grows while wrapped. Items must come out in push
// order, and the capacity must be the smallest power of two holding the
// peak length.
func TestRingFIFOAcrossWrapAndGrowth(t *testing.T) {
	var q Ring[int]
	var want []int // reference FIFO
	next, peak := 0, 0
	for round := 0; round < 40; round++ {
		for k := 0; k < round%7+1; k++ {
			*q.Push() = next
			want = append(want, next)
			next++
			peak = max(peak, q.Len())
		}
		for k := 0; k < round%5 && q.Len() > 0; k++ {
			if got := *q.Front(); got != want[0] {
				t.Fatalf("round %d: front %d, want %d", round, got, want[0])
			}
			q.Pop()
			want = want[1:]
		}
		if q.Len() != len(want) {
			t.Fatalf("round %d: Len %d, want %d", round, q.Len(), len(want))
		}
	}
	for len(want) > 0 {
		if got := *q.Front(); got != want[0] {
			t.Fatalf("drain: front %d, want %d", got, want[0])
		}
		q.Pop()
		want = want[1:]
	}
	capWant := 1
	for capWant < peak {
		capWant *= 2
	}
	if q.Cap() != capWant {
		t.Errorf("Cap = %d, want %d for a peak length of %d", q.Cap(), capWant, peak)
	}
	// Reset with items still queued must zero their slots too, so a reused
	// ring holds no stale items.
	for k := 0; k < 3; k++ {
		*q.Push() = k + 1
	}
	q.Reset()
	if q.Len() != 0 || q.Cap() != capWant {
		t.Errorf("after Reset: Len %d Cap %d, want 0 and %d", q.Len(), q.Cap(), capWant)
	}
	for i, v := range q.buf {
		if v != 0 {
			t.Fatalf("after Reset: slot %d holds %d, want zero", i, v)
		}
	}
}

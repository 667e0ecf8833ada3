package fifo

import (
	"slices"
	"testing"
)

// Against a slice model, over interleavings of pushes and pops that
// make the queue wrap, slide down and empty out: the same entries come
// out in the same order.
func TestQueueMatchesSliceModel(t *testing.T) {
	var q Queue[int]
	var model []int
	next := 0
	for step := 0; step < 2000; step++ {
		if step%7 < 4 || len(model) == 0 {
			q.Push(next)
			model = append(model, next)
			next++
		} else {
			v, ok := q.Pop()
			if !ok || v != model[0] {
				t.Fatalf("step %d: Pop = %d, %v; want %d, true", step, v, ok, model[0])
			}
			model = model[1:]
		}
		if q.Len() != len(model) || !slices.Equal(q.All(), model) {
			t.Fatalf("step %d: queue %v, want %v", step, q.All(), model)
		}
	}
	for len(model) > 0 {
		v, _ := q.Pop()
		if v != model[0] {
			t.Fatalf("drain: Pop = %d, want %d", v, model[0])
		}
		model = model[1:]
	}
	if v, ok := q.Pop(); ok {
		t.Fatalf("Pop on empty queue = %d, true", v)
	}
}

// A queue that keeps filling and draining reuses its backing array, and
// a popped slot no longer references its entry.
func TestQueueReusesItsArray(t *testing.T) {
	var q Queue[*int]
	for i := 0; i < 8; i++ {
		q.Push(new(int))
	}
	base := &q.q[:cap(q.q)][0]
	for lap := 0; lap < 100; lap++ {
		q.Pop()
		q.Push(new(int))
	}
	if &q.q[:cap(q.q)][0] != base {
		t.Error("the queue reallocated its backing array")
	}
	q.Pop()
	for _, p := range q.q[:q.head] {
		if p != nil {
			t.Fatal("a popped slot still references its entry")
		}
	}
}

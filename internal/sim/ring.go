package sim

// Ring is a FIFO queue in a power-of-two ring buffer, for device models'
// work queues. It grows by doubling only when full, so its capacity is the
// smallest power of two that holds the peak backlog, however many items pass
// through. Items are written and read in place through pointers, which stay
// valid until the next Push. The zero value is an empty ring.
type Ring[T any] struct {
	buf  []T
	head int // index of the front item in buf
	n    int
}

// Len reports how many items are queued.
func (q *Ring[T]) Len() int { return q.n }

// Cap reports the ring's capacity.
func (q *Ring[T]) Cap() int { return len(q.buf) }

// Push appends a zero item at the back and returns it for the caller to fill.
func (q *Ring[T]) Push() *T {
	if q.n == len(q.buf) {
		buf := make([]T, max(1, 2*len(q.buf)))
		k := copy(buf, q.buf[q.head:])
		copy(buf[k:], q.buf[:q.head])
		q.buf, q.head = buf, 0
	}
	q.n++
	return &q.buf[(q.head+q.n-1)&(len(q.buf)-1)]
}

// Front returns the front item. The ring must not be empty.
func (q *Ring[T]) Front() *T { return &q.buf[q.head] }

// Pop drops the front item, zeroing its slot so it holds no references. The
// ring must not be empty.
func (q *Ring[T]) Pop() {
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
}

// Reset empties the ring, keeping its capacity. Pop zeroes every slot it
// frees, so only the items still queued need clearing — none, for a ring
// that drained.
func (q *Ring[T]) Reset() {
	for q.n > 0 {
		q.Pop()
	}
	q.head = 0
}

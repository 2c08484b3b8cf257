package seglog

import "testing"

// A warmed topic appends without allocating: the frame is built in the
// topic's reusable scratch buffer, header included. (The sparse index entry
// every IndexEvery bytes opens a file; one in thousands of appends, it
// averages out below one allocation per run.)
func TestAppendDoesNotAllocate(t *testing.T) {
	s := openStore(t, Options{})
	tp, err := s.Topic("events")
	if err != nil {
		t.Fatalf("Topic: %v", err)
	}
	appendN(t, tp, 100)
	payload := []byte(`{"ts":1700000000000,"k":42,"v":3.25}`)
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := tp.Append(1, 2, payload); err != nil {
			t.Fatalf("Append: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Append allocates %v objects per record, want 0", allocs)
	}
}

package cutty

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/agg"
	"repro/internal/engine"
	"repro/internal/window"
)

func q(spec window.Spec, fn *agg.FnF64) engine.Query { return engine.Query{Window: spec, Fn: fn} }

// TestNewTimelineRule pins which query sets get a timeline: only periodic
// time windows, each at most maxWindowSlices slices long — decided from the
// queries and nothing else.
func TestNewTimelineRule(t *testing.T) {
	for name, tc := range map[string]struct {
		queries []engine.Query
		want    bool
		width   int64
	}{
		"tumbling":           {[]engine.Query{q(window.Tumbling(1000), agg.SumF64())}, true, 1000},
		"windows workload":   {[]engine.Query{q(window.Tumbling(1000), agg.SumF64()), q(window.Sliding(10_000, 1000), agg.AvgF64()), q(window.Sliding(60_000, 5000), agg.MaxF64())}, true, 1000},
		"narrow slices":      {[]engine.Query{q(window.Sliding(6000, 2000), agg.SumF64()), q(window.Sliding(9000, 3000), agg.SumF64())}, true, 1000},
		"size not multiple":  {[]engine.Query{q(window.Sliding(70, 30), agg.SumF64())}, true, 10},
		"at the bound":       {[]engine.Query{q(window.Sliding(maxWindowSlices*10, 10), agg.SumF64())}, true, 10},
		"over the bound":     {[]engine.Query{q(window.Sliding((maxWindowSlices+1)*10, 10), agg.SumF64())}, false, 0},
		"a day by seconds":   {[]engine.Query{q(window.Sliding(86_400_000, 1000), agg.SumF64())}, false, 0},
		"session":            {[]engine.Query{q(window.Session(30), agg.SumF64())}, false, 0},
		"count":              {[]engine.Query{q(window.CountTumbling(5), agg.SumF64())}, false, 0},
		"time-or-count":      {[]engine.Query{q(window.TimeOrCount(60, 5), agg.SumF64())}, false, 0},
		"periodic + session": {[]engine.Query{q(window.Tumbling(50), agg.SumF64()), q(window.Session(30), agg.SumF64())}, false, 0},
		"no function":        {[]engine.Query{{Window: window.Tumbling(50)}}, false, 0},
		"no queries":         {nil, false, 0},
	} {
		tl, ok := NewTimeline(func(engine.Result) {}, tc.queries)
		if ok != tc.want {
			t.Fatalf("%s: timeline = %v, want %v", name, ok, tc.want)
		}
		if ok && tl.width != tc.width {
			t.Fatalf("%s: slice width %d, want %d", name, tl.width, tc.width)
		}
	}
}

// TestTimelineDeadlineMovesEarlier: a new slice's short window ends before an
// older slice's long one, and the end-of-stream watermark ends at the last
// slice however far away the end of time is.
func TestTimelineDeadlineMovesEarlier(t *testing.T) {
	var got []engine.Result
	tl, _ := NewTimeline(func(r engine.Result) { got = append(got, r) }, []engine.Query{
		q(window.Tumbling(1000), agg.CountF64()),
		q(window.Sliding(60_000, 5000), agg.SumF64()),
	})
	k := NewKeySlices()
	tl.Visit(k)
	for _, ts := range []int64{-5, 100, 58_500} {
		tl.OnWatermark(ts)
		tl.OnElement(ts, 2)
	}
	if tl.NextFire() != 59_000 {
		t.Fatalf("deadline %d, want 59000: the newest slice's 1 s window", tl.NextFire())
	}
	tl.OnWatermark(math.MaxInt64)
	if len(got) != 2+12 || len(k.Slots) != 0 || tl.NextFire() != math.MaxInt64 {
		t.Fatalf("close-out fired %d windows, left %d slices, deadline %d", len(got), len(k.Slots), tl.NextFire())
	}
	want := []engine.Result{{QueryID: 0, Start: 0, End: 1000, Value: 1, Count: 1}, {QueryID: 0, Start: 58_000, End: 59_000, Value: 1, Count: 1}, {QueryID: 1, Start: 0, End: 60_000, Value: 4, Count: 2}}
	if !reflect.DeepEqual(got[:3], want) {
		t.Fatalf("fired %+v, want %+v first", got[:3], want)
	}
}

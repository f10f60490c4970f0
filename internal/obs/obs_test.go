package obs

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"dhsketch/internal/dht"
)

func TestRingBoundsAndOrder(t *testing.T) {
	r := NewRing(3)
	if got := r.Events(); len(got) != 0 {
		t.Fatalf("fresh ring holds %d events", len(got))
	}
	for i := 1; i <= 5; i++ {
		r.Event(Event{Tick: int64(i), Kind: KindProbe})
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	if r.Total() != 5 {
		t.Fatalf("Total = %d, want 5", r.Total())
	}
	got := r.Events()
	for i, want := range []int64{3, 4, 5} {
		if got[i].Tick != want {
			t.Fatalf("events %v: oldest-first order broken (want ticks 3,4,5)", got)
		}
	}
	r.Reset()
	if r.Len() != 0 || r.Total() != 5 {
		t.Fatalf("after Reset: Len=%d Total=%d, want 0 and 5", r.Len(), r.Total())
	}
	r.Event(Event{Tick: 6})
	if got := r.Events(); len(got) != 1 || got[0].Tick != 6 {
		t.Fatalf("post-reset events %v, want just tick 6", got)
	}
}

func TestRingRejectsNonPositiveCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRing(0) did not panic")
		}
	}()
	NewRing(0)
}

func TestMulti(t *testing.T) {
	if got := Multi(); got != nil {
		t.Fatalf("Multi() = %v, want nil", got)
	}
	if got := Multi(nil, nil); got != nil {
		t.Fatalf("Multi(nil, nil) = %v, want nil", got)
	}
	r := NewRing(4)
	if got := Multi(nil, r, nil); got != Tracer(r) {
		t.Fatalf("single live sink should be returned unwrapped, got %T", got)
	}
	r2 := NewRing(4)
	m := Multi(r, nil, r2)
	m.Event(Event{Tick: 7})
	if r.Len() != 1 || r2.Len() != 1 {
		t.Fatalf("fan-out missed a sink: %d / %d events", r.Len(), r2.Len())
	}
}

// TestClassify: the class an event's Err records for a failure
// (dht.ClassOf), wrapped sentinels included, and the name the JSONL sink
// writes for it.
func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want dht.Class
		name string
	}{
		{nil, dht.ClassNone, ""},
		{dht.ErrLost, dht.ClassLost, "lost"},
		{dht.ErrTimeout, dht.ClassTimeout, "timeout"},
		{dht.ErrNodeDown, dht.ClassDown, "down"},
		{dht.ErrNoRoute, dht.ClassNoRoute, "no-route"},
		{fmt.Errorf("wrapped: %w", dht.ErrTimeout), dht.ClassTimeout, "timeout"},
		{fmt.Errorf("opaque"), dht.ClassOther, "other"},
	}
	for _, c := range cases {
		got := dht.ClassOf(c.err)
		if got != c.want || got.String() != c.name {
			t.Errorf("ClassOf(%v) = %v %q, want %v %q", c.err, got, got.String(), c.want, c.name)
		}
		var buf bytes.Buffer
		j := NewJSONL(&buf)
		j.Event(Event{Kind: KindLookup, Bit: 1, Err: got})
		if err := j.Flush(); err != nil {
			t.Fatal(err)
		}
		if hasErr := strings.Contains(buf.String(), `"err":`); hasErr != (c.name != "") {
			t.Errorf("ClassOf(%v): JSONL line %q, want an err field only for a failure", c.err, buf.String())
		} else if c.name != "" && !strings.Contains(buf.String(), `"err":"`+c.name+`"`) {
			t.Errorf("ClassOf(%v): JSONL line %q, want err %q", c.err, buf.String(), c.name)
		}
	}
}

func TestJSONLEncoding(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	j.Event(Event{Tick: 3, Kind: KindProbe, Pass: 2, Node: 18446744073709551615, Bit: 7, Arg: 4})
	j.Event(Event{Tick: 5, Kind: KindLookup, Pass: 2, Bit: 7, Arg: 9, Err: dht.ClassTimeout})
	j.Event(Event{Tick: 6, Kind: KindCountDone, Pass: 2, Node: 1, Metric: 42, Bit: -1})
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	want := `{"tick":3,"kind":"probe","pass":2,"node":"18446744073709551615","bit":7,"arg":4}
{"tick":5,"kind":"lookup","pass":2,"bit":7,"arg":9,"err":"timeout"}
{"tick":6,"kind":"count-done","pass":2,"node":"1","metric":"42"}
`
	if buf.String() != want {
		t.Fatalf("encoding mismatch:\ngot:\n%swant:\n%s", buf.String(), want)
	}
}

func TestJSONLDeterministic(t *testing.T) {
	run := func() string {
		var buf bytes.Buffer
		j := NewJSONL(&buf)
		for i := 0; i < 100; i++ {
			j.Event(Event{Tick: int64(i), Kind: Kind(1 + i%10), Pass: uint64(i % 3), Node: uint64(i * 977), Bit: int16(i%30 - 1), Arg: int64(i % 7)})
		}
		if err := j.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if run() != run() {
		t.Fatal("identical event sequences encoded to different bytes")
	}
}

// failWriter errors after the first write, to exercise error latching.
type failWriter struct{ writes int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes > 1 {
		return 0, fmt.Errorf("disk full")
	}
	return len(p), nil
}

func TestJSONLLatchesWriteError(t *testing.T) {
	j := NewJSONL(&failWriter{})
	// Overflow the 4 KiB bufio buffer so the underlying writer is hit.
	for i := 0; i < 200; i++ {
		j.Event(Event{Tick: int64(i), Kind: KindProbe, Node: 123456789, Bit: 5, Arg: 3})
	}
	if err := j.Flush(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("Flush() = %v, want the latched write error", err)
	}
}

func TestAggregatorFolding(t *testing.T) {
	a := NewAggregator()
	a.Event(Event{Kind: KindCountStart, Pass: 1, Node: 10, Bit: -1, Arg: 1})
	a.Event(Event{Kind: KindLookup, Pass: 1, Node: 20, Bit: 3, Arg: 5})
	a.Event(Event{Kind: KindLookup, Pass: 1, Bit: 3, Arg: 2, Err: dht.ClassLost})
	a.Event(Event{Kind: KindProbe, Pass: 1, Node: 20, Bit: 3, Arg: 5})
	a.Event(Event{Kind: KindProbe, Pass: 1, Node: 20, Bit: 3, Arg: 1})
	a.Event(Event{Kind: KindProbe, Pass: 1, Node: 30, Bit: 4, Arg: 6})
	a.Event(Event{Kind: KindWalkStep, Pass: 1, Node: 30, Bit: 3, Arg: 1})
	a.Event(Event{Kind: KindWalkStep, Pass: 1, Bit: 3, Arg: 1, Err: dht.ClassDown})
	a.Event(Event{Kind: KindStore, Node: 20, Metric: 7, Bit: 3, Arg: 1})
	a.Event(Event{Kind: KindReplica, Node: 30, Metric: 7, Bit: 3, Arg: 1})
	a.Event(Event{Kind: KindStoreFail, Bit: 3, Arg: 2, Err: dht.ClassTimeout})
	a.Event(Event{Kind: KindExpire, Node: 20, Bit: -1, Arg: 4})
	a.Event(Event{Kind: KindFault, Node: 30, Bit: -1, Err: dht.ClassLost})

	r := a.Report(4)
	if r.Events != 13 {
		t.Errorf("Events = %d, want 13", r.Events)
	}
	if r.Passes != 1 {
		t.Errorf("Passes = %d, want 1", r.Passes)
	}
	if r.WalkSteps != 2 {
		t.Errorf("WalkSteps = %d, want 2", r.WalkSteps)
	}
	if r.Expired != 4 {
		t.Errorf("Expired = %d, want 4", r.Expired)
	}
	if r.TotalProbes() != 3 {
		t.Errorf("TotalProbes = %d, want 3", r.TotalProbes())
	}
	// Probes: node 20 twice, node 30 once, nodes padded to 4 → samples
	// {2, 1, 0, 0}: mean 0.75, max 2.
	if r.ProbesPerNode.Count != 4 {
		t.Errorf("ProbesPerNode.Count = %d, want 4 (zero-padding missing)", r.ProbesPerNode.Count)
	}
	if r.ProbesPerNode.Mean != 0.75 || r.ProbesPerNode.Max != 2 {
		t.Errorf("ProbesPerNode = %+v, want mean 0.75 max 2", r.ProbesPerNode)
	}
	// Stores: one store + one replica on distinct nodes → {1, 1, 0, 0}.
	if r.StoresPerNode.Mean != 0.5 {
		t.Errorf("StoresPerNode.Mean = %v, want 0.5", r.StoresPerNode.Mean)
	}
	// Lookup hops: only the successful lookup counts → {5}.
	if r.LookupHops.Count != 1 || r.LookupHops.Mean != 5 {
		t.Errorf("LookupHops = %+v, want one sample of 5", r.LookupHops)
	}
	// Heatmap: bit 3 has 1 lookup, 2 probes, 2 failed (failed lookup +
	// failed walk step); bit 4 has 1 probe.
	if len(r.Bits) != 2 || r.Bits[0].Bit != 3 || r.Bits[1].Bit != 4 {
		t.Fatalf("Bits = %+v, want rows for bits 3 and 4 ascending", r.Bits)
	}
	if b := r.Bits[0]; b.Lookups != 1 || b.Probes != 2 || b.Failed != 2 {
		t.Errorf("bit 3 = %+v, want lookups 1, probes 2, failed 2", b)
	}
	// Faults: the injected fault and the store-fail, by class.
	if r.Faults.Lost != 1 || r.Faults.Timeouts != 1 || r.Faults.Total() != 2 {
		t.Errorf("Faults = %+v, want 1 lost + 1 timeout", r.Faults)
	}

	var out strings.Builder
	r.Render(&out)
	if !strings.Contains(out.String(), "probes/node") || !strings.Contains(out.String(), "bit\tlookups") {
		t.Errorf("Render output missing expected sections:\n%s", out.String())
	}
}

func TestAggregatorPadsOnlyUpward(t *testing.T) {
	a := NewAggregator()
	for n := uint64(1); n <= 6; n++ {
		a.Event(Event{Kind: KindProbe, Node: n, Bit: 0})
	}
	// More distinct nodes seen than totalNodes claims: the larger count
	// wins, nothing is dropped.
	if got := a.Report(3).ProbesPerNode.Count; got != 6 {
		t.Fatalf("ProbesPerNode.Count = %d, want 6", got)
	}
}

// TestKindAndClassNames: every kind from KindCountStart to KindCrash has
// a wire name of its own.
func TestKindAndClassNames(t *testing.T) {
	seen := map[string]bool{}
	for k := KindCountStart; k <= KindCrash; k++ {
		name := k.String()
		if name == "" || name == "unknown" {
			t.Errorf("kind %d has no wire name", k)
		}
		if seen[name] {
			t.Errorf("duplicate wire name %q", name)
		}
		seen[name] = true
	}
	if Kind(0).String() != "unknown" || Kind(200).String() != "unknown" {
		t.Error("out-of-range kinds must stringify as unknown")
	}
	if dht.Class(200).String() != "unknown" {
		t.Error("out-of-range classes must stringify as unknown")
	}
}

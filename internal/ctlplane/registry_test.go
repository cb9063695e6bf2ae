package ctlplane

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// panicMessage runs f and returns what it panicked with, or "" if it
// returned normally.
func panicMessage(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestRegistryScanCases covers what TestRegistryRejectsBadRegistrations
// leaves out: a histogram family collides with its expanded series in
// either registration order, a duplicate is found whatever order its
// labels come in, and the scan lets through what is not a collision.
func TestRegistryScanCases(t *testing.T) {
	zero := func() int64 { return 0 }
	hist := func() *Histogram { return NewHistogram(1, 1) }
	for _, c := range []struct {
		name string
		reg  func(r *Registry)
		want string // substring of the panic; "" means no panic
	}{
		{"counter x_bucket after histogram x", func(r *Registry) {
			r.Histogram("x", "h", hist())
			r.Counter("x_bucket", "c", zero)
		}, "metric x_bucket collides with histogram family x"},
		{"histogram x after counter x_bucket", func(r *Registry) {
			r.Counter("x_bucket", "c", zero)
			r.Histogram("x", "h", hist())
		}, "histogram family x expands to existing metric x_bucket"},
		{"histogram x after gauge x_count", func(r *Registry) {
			r.Gauge("x_count", "g", zero)
			r.Histogram("x", "h", hist())
		}, "histogram family x expands to existing metric x_count"},
		{"duplicate with three labels reordered", func(r *Registry) {
			r.Counter("x", "c", zero, Label{"a", "1"}, Label{"b", "2"}, Label{"c", "3"})
			r.Counter("x", "c", zero, Label{"c", "3"}, Label{"a", "1"}, Label{"b", "2"})
		}, "duplicate series x"},
		{"same name, different labels", func(r *Registry) {
			r.Counter("x", "c", zero, Label{"a", "1"}, Label{"b", "2"})
			r.Counter("x", "c", zero, Label{"a", "1"}, Label{"b", "3"})
			r.Counter("x", "c", zero, Label{"a", "1"})
			r.Counter("x", "c", zero)
		}, ""},
		{"histogram family beside an unrelated x_total", func(r *Registry) {
			r.Counter("x_total", "c", zero)
			r.Histogram("x", "h", hist())
			r.Counter("x_buckets", "c", zero)
			r.Histogram("y", "h", hist(), Label{"a", "1"})
			r.Histogram("y", "h", hist(), Label{"a", "2"})
		}, ""},
	} {
		got := panicMessage(func() { c.reg(NewRegistry()) })
		switch {
		case c.want == "" && got != "":
			t.Errorf("%s: unexpected panic %q", c.name, got)
		case c.want != "" && !strings.Contains(got, c.want):
			t.Errorf("%s: panic %q, want it to contain %q", c.name, got, c.want)
		}
	}
}

// TestRegistryRegisterAllocs pins registration as an append: with room
// in the slice, registering labelled series allocates nothing (no key
// string, no label copy, no index maps).
func TestRegistryRegisterAllocs(t *testing.T) {
	const series, runs = 16, 100
	zero := func() int64 { return 0 }
	names := make([]string, series)
	labels := make([][]Label, series)
	for i := range names {
		names[i] = fmt.Sprintf("series_%d_total", i%4)
		labels[i] = []Label{{"shard", fmt.Sprint(i / 4)}, {"transport", "inproc"}}
	}
	// One fresh registry per run (AllocsPerRun adds a warm-up run), each
	// already holding a few series and with room for the rest.
	regs := make([]*Registry, runs+1)
	for i := range regs {
		r := NewRegistry()
		r.Gauge("base_level", "h", zero)
		r.Histogram("base_seconds", "h", NewLatencyHistogram())
		r.metrics = slices.Grow(r.metrics, series)
		regs[i] = r
	}
	next := 0
	got := testing.AllocsPerRun(runs, func() {
		r := regs[next]
		next++
		for i := range names {
			r.Counter(names[i], "h", zero, labels[i]...)
		}
	})
	t.Logf("%d registrations: %.0f allocs", series, got)
	if got != 0 {
		t.Errorf("registering %d series allocated %.0f times, want 0", series, got)
	}
}

// TestLatencyBucketsIsACopy: the latency histograms share one bound
// slice, so the exported accessor must hand out a copy a caller may
// write without reaching the histograms.
func TestLatencyBucketsIsACopy(t *testing.T) {
	b := LatencyBuckets()
	b[0] = 1
	if got := LatencyBuckets()[0]; got != 1024 {
		t.Fatalf("LatencyBuckets()[0] = %d after a caller wrote its copy, want 1024", got)
	}
	h := NewLatencyHistogram()
	h.Observe(1000)
	if s := h.Snapshot(); s.Buckets[0].Count != 1 || s.Buckets[0].LE != 1024e-9 {
		t.Fatalf("first latency bucket = %+v, want le=1.024e-06 count=1", s.Buckets[0])
	}
}

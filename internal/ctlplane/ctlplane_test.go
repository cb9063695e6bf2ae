package ctlplane

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"math"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// The Prometheus identifier grammars validName implements — the
// reference the predicate is held to, and what the exposition-format
// validator below checks scraped names against.
var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// validName accepts exactly what the two grammars accept, on the edge
// cases and on every metric name the transports register (the Metric*
// constants, read from wire's source: wire imports this package, so the
// test cannot import it back).
func TestValidNameMatchesGrammar(t *testing.T) {
	names := []string{
		"", "_", ":", "a", "A9", "9a", "0", "a:b", ":a", "a_b_total", "__name__",
		"a-b", "a b", "a.b", "a\n", "\na", "é", "aé", "a\x00", "shard", "le", "transport",
	}
	file, err := parser.ParseFile(token.NewFileSet(), "../wire/metrics.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	registered := 0
	ast.Inspect(file, func(n ast.Node) bool {
		spec, ok := n.(*ast.ValueSpec)
		if !ok || !strings.HasPrefix(spec.Names[0].Name, "Metric") {
			return true
		}
		name, err := strconv.Unquote(spec.Values[0].(*ast.BasicLit).Value)
		if err != nil {
			t.Fatalf("%s: %v", spec.Names[0].Name, err)
		}
		if !validName(name, true) || !validName(name, false) {
			t.Errorf("registered metric name %q refused", name)
		}
		names = append(names, name)
		registered++
		return true
	})
	if registered < 40 {
		t.Fatalf("found %d Metric* constants in wire/metrics.go, want the whole catalogue", registered)
	}
	for _, name := range names {
		if got, want := validName(name, true), metricNameRe.MatchString(name); got != want {
			t.Errorf("validName(%q, metric) = %v, grammar says %v", name, got, want)
		}
		if got, want := validName(name, false), labelNameRe.MatchString(name); got != want {
			t.Errorf("validName(%q, label) = %v, grammar says %v", name, got, want)
		}
	}
}

// fakeSource is a hand-rolled Source for plane-level tests.
type fakeSource struct {
	health Health
	status any
	reg    *Registry
}

func (f *fakeSource) Health() Health   { return f.health }
func (f *fakeSource) Status() any      { return f.status }
func (f *fakeSource) Gather() []Sample { return f.reg.Gather() }

func newFakeSource(name string, n *atomic.Int64) *fakeSource {
	reg := NewRegistry()
	reg.Counter("countnet_test_ops_total", "Test operations.", n.Load)
	reg.Gauge("countnet_test_level", "Test level.", func() int64 { return 7 })
	return &fakeSource{
		health: Health{Live: true, Quiescent: true},
		status: map[string]string{"name": name},
		reg:    reg,
	}
}

func TestRegistryGatherOrderAndValues(t *testing.T) {
	var a, b atomic.Int64
	a.Store(3)
	reg := NewRegistry()
	reg.Counter("countnet_a_total", "A.", a.Load, Label{"transport", "tcp"})
	reg.Gauge("countnet_b", "B.", b.Load)
	reg.Counter("countnet_a_total", "A.", func() int64 { return 11 }, Label{"transport", "udp"})

	samples := reg.Gather()
	if len(samples) != 3 {
		t.Fatalf("Gather returned %d samples, want 3", len(samples))
	}
	if samples[0].Name != "countnet_a_total" || samples[0].Value != 3 {
		t.Fatalf("sample 0 = %+v, want countnet_a_total=3", samples[0])
	}
	if samples[1].Name != "countnet_b" || samples[1].Type != TypeGauge {
		t.Fatalf("sample 1 = %+v, want countnet_b gauge", samples[1])
	}
	if samples[2].Value != 11 {
		t.Fatalf("sample 2 = %+v, want value 11", samples[2])
	}

	// Closures are read at scrape time, not registration time.
	a.Store(100)
	if got := reg.Gather()[0].Value; got != 100 {
		t.Fatalf("re-Gather saw %d, want 100 (stale closure?)", got)
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", what)
		}
	}()
	f()
}

func TestRegistryRejectsBadRegistrations(t *testing.T) {
	zero := func() int64 { return 0 }
	mustPanic(t, "invalid metric name", func() {
		NewRegistry().Counter("bad name", "h", zero)
	})
	mustPanic(t, "invalid label name", func() {
		NewRegistry().Counter("ok_name", "h", zero, Label{"bad-key", "v"})
	})
	mustPanic(t, "nil read func", func() {
		NewRegistry().Counter("ok_name", "h", nil)
	})
	mustPanic(t, "duplicate series", func() {
		r := NewRegistry()
		r.Counter("ok_name", "h", zero, Label{"a", "1"}, Label{"b", "2"})
		// Same series, labels in a different order: still a duplicate.
		r.Counter("ok_name", "h", zero, Label{"b", "2"}, Label{"a", "1"})
	})
	mustPanic(t, "type drift", func() {
		r := NewRegistry()
		r.Counter("ok_name", "h", zero, Label{"a", "1"})
		r.Gauge("ok_name", "h", zero, Label{"a", "2"})
	})
	mustPanic(t, "help drift", func() {
		r := NewRegistry()
		r.Counter("ok_name", "h", zero, Label{"a", "1"})
		r.Counter("ok_name", "different help", zero, Label{"a", "2"})
	})
	mustPanic(t, "invalid fleet label", func() {
		NewFleet("f", "bad-key")
	})
}

// validatePrometheusText is a strict checker for the text exposition
// format 0.0.4 subset WritePrometheus emits: every non-comment line is
// `name{labels} value`, every name is announced by exactly one
// # HELP / # TYPE pair before its first sample, and no name's samples
// are split across groups. Histogram families get the full treatment:
// their _bucket/_sum/_count series must follow the family's single
// HELP/TYPE pair, every bucket series must carry an le label, le values
// must ascend strictly and end at +Inf, cumulative counts must be
// monotone, and the +Inf bucket must equal the matching _count series.
func validatePrometheusText(t *testing.T, text string) map[string]float64 {
	t.Helper()
	values := make(map[string]float64) // series key -> value
	helped := make(map[string]bool)
	typed := make(map[string]Type)
	finished := make(map[string]bool) // family -> a different family's samples followed
	// histogram family + "|" + non-le labels -> ascending (le, count)
	type bucket struct {
		le  float64
		val float64
	}
	buckets := make(map[string][]bucket)
	var last string
	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, ok := strings.Cut(rest, " ")
			if !ok || !metricNameRe.MatchString(name) {
				t.Fatalf("line %d: malformed HELP %q", ln+1, line)
			}
			if helped[name] {
				t.Fatalf("line %d: second HELP for %s", ln+1, name)
			}
			helped[name] = true
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("line %d: malformed TYPE %q", ln+1, line)
			}
			name, typ := fields[0], Type(fields[1])
			if typ != TypeCounter && typ != TypeGauge && typ != TypeHistogram {
				t.Fatalf("line %d: unknown type %q", ln+1, typ)
			}
			if _, dup := typed[name]; dup {
				t.Fatalf("line %d: second TYPE for %s", ln+1, name)
			}
			typed[name] = typ
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unexpected comment %q", ln+1, line)
		default:
			// Sample line: name or name{k="v",...}, space, value.
			// Label values may contain spaces, so split on the last one.
			cut := strings.LastIndexByte(line, ' ')
			if cut < 0 {
				t.Fatalf("line %d: malformed sample %q", ln+1, line)
			}
			body, valStr := line[:cut], line[cut+1:]
			name := body
			if i := strings.IndexByte(body, '{'); i >= 0 {
				name = body[:i]
				if !strings.HasSuffix(body, "}") {
					t.Fatalf("line %d: unbalanced label braces %q", ln+1, line)
				}
			}
			if !metricNameRe.MatchString(name) {
				t.Fatalf("line %d: bad sample name %q", ln+1, name)
			}
			// A histogram family announces one name; its samples carry
			// the expanded _bucket/_sum/_count names.
			family := name
			if typed[name] == "" {
				for _, suffix := range []string{"_bucket", "_sum", "_count"} {
					if f, ok := strings.CutSuffix(name, suffix); ok && typed[f] == TypeHistogram {
						family = f
						break
					}
				}
			}
			if !helped[family] || typed[family] == "" {
				t.Fatalf("line %d: sample for %s before HELP/TYPE", ln+1, name)
			}
			if typed[family] == TypeHistogram && family == name {
				t.Fatalf("line %d: bare sample %q for histogram family (want _bucket/_sum/_count)", ln+1, name)
			}
			if finished[family] {
				t.Fatalf("line %d: samples for %s split across groups", ln+1, family)
			}
			if last != "" && last != family {
				finished[last] = true
			}
			last = family
			v, err := strconv.ParseFloat(valStr, 64)
			if err != nil {
				t.Fatalf("line %d: bad value %q: %v", ln+1, valStr, err)
			}
			if typed[family] != TypeHistogram && strings.ContainsAny(valStr, ".eE") {
				t.Fatalf("line %d: non-integer value %q for %s", ln+1, valStr, name)
			}
			if _, dup := values[body]; dup {
				t.Fatalf("line %d: duplicate series %q", ln+1, body)
			}
			values[body] = v
			if name == family+"_bucket" && typed[family] == TypeHistogram {
				rest, le, ok := splitLE(body[len(name):])
				if !ok {
					t.Fatalf("line %d: bucket series %q without an le label", ln+1, body)
				}
				buckets[family+"|"+rest] = append(buckets[family+"|"+rest], bucket{le: le, val: v})
			}
		}
	}
	// Histogram family post-pass: per (family, labels) series set.
	for key, bs := range buckets {
		family, rest, _ := strings.Cut(key, "|")
		for i := 1; i < len(bs); i++ {
			if !(bs[i].le > bs[i-1].le) {
				t.Fatalf("%s%s: le values not strictly ascending (%v after %v)",
					family, rest, bs[i].le, bs[i-1].le)
			}
			if bs[i].val < bs[i-1].val {
				t.Fatalf("%s%s: cumulative bucket counts not monotone (%v < %v at le=%v)",
					family, rest, bs[i].val, bs[i-1].val, bs[i].le)
			}
		}
		inf := bs[len(bs)-1]
		if !math.IsInf(inf.le, 1) {
			t.Fatalf("%s%s: last bucket le = %v, want +Inf", family, rest, inf.le)
		}
		count, ok := values[family+"_count"+rest]
		if !ok {
			t.Fatalf("%s%s: histogram without a _count series", family, rest)
		}
		if inf.val != count {
			t.Fatalf("%s%s: +Inf bucket %v != _count %v", family, rest, inf.val, count)
		}
		if _, ok := values[family+"_sum"+rest]; !ok {
			t.Fatalf("%s%s: histogram without a _sum series", family, rest)
		}
	}
	return values
}

// splitLE strips the le label out of a label body (`{a="b",le="x"}`),
// returning the remaining labels (`{a="b"}`, or "" when le was alone)
// and the parsed le bound.
func splitLE(labels string) (rest string, le float64, ok bool) {
	i := strings.LastIndex(labels, `le="`)
	if i < 0 {
		return labels, 0, false
	}
	end := strings.IndexByte(labels[i+4:], '"')
	if end < 0 {
		return labels, 0, false
	}
	leStr := labels[i+4 : i+4+end]
	if leStr == "+Inf" {
		le = math.Inf(1)
	} else {
		var err error
		if le, err = strconv.ParseFloat(leStr, 64); err != nil {
			return labels, 0, false
		}
	}
	rest = labels[:i] + labels[i+4+end+1:]
	rest = strings.TrimSuffix(rest, ",}") // le was last: {a="b",le="x"}
	if rest != labels[:i]+labels[i+4+end+1:] {
		rest += "}"
	}
	rest = strings.Replace(rest, "{,", "{", 1) // le was first but not alone
	if rest == "{}" {
		rest = ""
	}
	return rest, le, true
}

func TestWritePrometheusFormat(t *testing.T) {
	samples := []Sample{
		{Name: "countnet_x_total", Type: TypeCounter, Help: `a "quoted" help with \ and` + "\nnewline", Value: 1,
			Labels: []Label{{"transport", "tcp"}, {"shard", "0"}}},
		{Name: "countnet_y", Type: TypeGauge, Help: "y.", Value: -2},
		{Name: "countnet_x_total", Type: TypeCounter, Help: `a "quoted" help with \ and` + "\nnewline", Value: 3,
			Labels: []Label{{"transport", "udp"}, {"value", `needs "escaping"` + "\n"}}},
	}
	var b strings.Builder
	if err := WritePrometheus(&b, samples); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	values := validatePrometheusText(t, text)
	if len(values) != 3 {
		t.Fatalf("validator saw %d series, want 3:\n%s", len(values), text)
	}
	if v := values[`countnet_x_total{transport="tcp",shard="0"}`]; v != 1 {
		t.Fatalf("tcp series = %v, want 1:\n%s", v, text)
	}
	if v := values[`countnet_x_total{transport="udp",value="needs \"escaping\"\n"}`]; v != 3 {
		t.Fatalf("udp series = %v, want 3:\n%s", v, text)
	}
	if !strings.Contains(text, `# HELP countnet_x_total a "quoted" help with \\ and\nnewline`) {
		t.Fatalf("help not escaped:\n%s", text)
	}
	// Both countnet_x_total samples share one header pair.
	if n := strings.Count(text, "# TYPE countnet_x_total"); n != 1 {
		t.Fatalf("countnet_x_total announced %d times, want 1:\n%s", n, text)
	}
}

func TestFleetAggregation(t *testing.T) {
	var n0, n1 atomic.Int64
	n0.Store(5)
	n1.Store(9)
	s0 := newFakeSource("s0", &n0)
	s1 := newFakeSource("s1", &n1)
	fl := NewFleet("testfleet", "stripe")
	fl.Add("0", s0)
	fl.Add("1", s1)

	// Gather prefixes each member's samples with stripe="i".
	samples := fl.Gather()
	if len(samples) != 4 {
		t.Fatalf("fleet Gather returned %d samples, want 4", len(samples))
	}
	for i, s := range samples {
		want := Label{"stripe", strconv.Itoa(i / 2)}
		if len(s.Labels) == 0 || s.Labels[0] != want {
			t.Fatalf("sample %d labels = %v, want leading %v", i, s.Labels, want)
		}
	}
	if samples[0].Value != 5 || samples[2].Value != 9 {
		t.Fatalf("fleet values = %d,%d; want 5,9", samples[0].Value, samples[2].Value)
	}

	// Health is the member conjunction.
	if h := fl.Health(); !h.Live || !h.Quiescent {
		t.Fatalf("all-live fleet health = %+v", h)
	}
	s1.health = Health{Live: false, Quiescent: false, Detail: "draining"}
	h := fl.Health()
	if h.Live || h.Quiescent {
		t.Fatalf("fleet with dead member health = %+v", h)
	}
	if !strings.Contains(h.Detail, "stripe=1") {
		t.Fatalf("fleet detail %q does not name the dead member", h.Detail)
	}

	// Status nests the members under the label key.
	st := fl.Status().(FleetStatus)
	if st.Name != "testfleet" || st.LabelKey != "stripe" || len(st.Members) != 2 {
		t.Fatalf("fleet status = %+v", st)
	}
	if st.Members[1].Health.Live {
		t.Fatalf("member 1 should report not live: %+v", st.Members[1])
	}
}

func httpGet(t *testing.T, url string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

func TestServeEndpoints(t *testing.T) {
	var n atomic.Int64
	n.Store(42)
	src := newFakeSource("solo", &n)
	srv, err := Serve("127.0.0.1:0", src)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	code, ctype, body := httpGet(t, base+"/health")
	if code != http.StatusOK {
		t.Fatalf("/health live status = %d, want 200", code)
	}
	if ctype != "application/json" {
		t.Fatalf("/health content type = %q", ctype)
	}
	var h Health
	if err := json.Unmarshal([]byte(body), &h); err != nil || !h.Live || !h.Quiescent {
		t.Fatalf("/health body %q (err %v)", body, err)
	}

	code, _, body = httpGet(t, base+"/status")
	if code != http.StatusOK {
		t.Fatalf("/status = %d, want 200", code)
	}
	var st map[string]string
	if err := json.Unmarshal([]byte(body), &st); err != nil || st["name"] != "solo" {
		t.Fatalf("/status body %q (err %v)", body, err)
	}

	code, ctype, body = httpGet(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d, want 200", code)
	}
	if want := "text/plain; version=0.0.4; charset=utf-8"; ctype != want {
		t.Fatalf("/metrics content type = %q, want %q", ctype, want)
	}
	values := validatePrometheusText(t, body)
	if values["countnet_test_ops_total"] != 42 {
		t.Fatalf("/metrics body missing counter:\n%s", body)
	}

	// Once the source stops being live, /health flips to 503.
	src.health = Health{Live: false, Detail: "closed"}
	code, _, _ = httpGet(t, base+"/health")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/health after close = %d, want 503", code)
	}
}

func TestDrainOnSignal(t *testing.T) {
	var drained atomic.Bool
	// SIGUSR1 keeps the test harness itself out of the blast radius.
	done, cancel := DrainOnSignal(func() { drained.Store(true) }, syscall.SIGUSR1)
	defer cancel()
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGUSR1); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("drain did not run within 5s of the signal")
	}
	if !drained.Load() {
		t.Fatal("done closed but drain did not run")
	}
}

func TestDrainOnSignalCancel(t *testing.T) {
	done, cancel := DrainOnSignal(func() { t.Error("drain ran after cancel") }, syscall.SIGUSR2)
	cancel()
	cancel() // idempotent
	// The handler goroutine has exited; a late signal must not drain.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGUSR2); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
		t.Fatal("done closed without a drain")
	case <-time.After(50 * time.Millisecond):
	}
}

// Example of rendering: keeps the doc surface honest.
func ExampleWritePrometheus() {
	samples := []Sample{
		{Name: "countnet_client_rpcs_total", Type: TypeCounter, Help: "Request frames sent.",
			Labels: []Label{{"transport", "tcp"}}, Value: 12},
	}
	var b strings.Builder
	WritePrometheus(&b, samples)
	fmt.Print(b.String())
	// Output:
	// # HELP countnet_client_rpcs_total Request frames sent.
	// # TYPE countnet_client_rpcs_total counter
	// countnet_client_rpcs_total{transport="tcp"} 12
}

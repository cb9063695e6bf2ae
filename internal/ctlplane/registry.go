// Package ctlplane is the production control plane for the distributed
// counting-network deployments: a tiny pull-based metrics registry plus
// an HTTP admin surface (/health, /status, /metrics) attachable to any
// shard server, counter client, or sharded fleet.
//
// The design center is that the hot path never pays for observability.
// Every number the plane exposes already exists as a monotone atomic
// (session RPC bills, retransmit counts, dedup window occupancy, pool
// eviction totals) maintained for the E25-E28 cost accounting; a Metric
// is just a named closure reading one of those atomics, evaluated only
// when a scrape arrives. Shards and counters therefore register
// read-side views at construction time and never touch the registry
// again — no channels, no locks shared with the data path, no
// per-operation branches beyond the atomic adds they were already
// doing.
//
// /metrics serves the Prometheus text exposition format (version
// 0.0.4), /health reports liveness and quiescence as JSON (HTTP 503
// once the target is draining or closed, which is what load balancers
// key on), and /status reports topology: stripe index, residue class,
// listen addresses, pool width. A Fleet aggregates any number of
// Sources under distinguishing labels, so a sharded cluster's endpoint
// shows per-stripe load side by side and skew is visible in one scrape.
//
// OPERATIONS.md at the repository root is the operator's manual for
// this package: endpoint walkthroughs, the full metric reference table
// (enforced against the registered names by `make docs-check`), and the
// drain/triage runbooks.
package ctlplane

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
)

// Type distinguishes Prometheus metric kinds: a counter only ever goes
// up (rates are meaningful), a gauge is a point-in-time level.
type Type string

const (
	TypeCounter   Type = "counter"
	TypeGauge     Type = "gauge"
	TypeHistogram Type = "histogram"
)

// Label is one name="value" pair attached to a metric's samples.
type Label struct {
	Key   string
	Value string
}

// Sample is one evaluated metric reading, the unit Gather returns and
// WritePrometheus renders. Counter and gauge samples carry Value;
// histogram samples carry Hist instead (Value stays zero).
type Sample struct {
	Name   string
	Type   Type
	Help   string
	Labels []Label
	Value  int64
	Hist   *HistSnapshot
}

// metric is one registered read-side view: a name plus the closure that
// reads the underlying atomic at scrape time. Exactly one of read/hist
// is set, matching the sample shape.
type metric struct {
	name   string
	typ    Type
	help   string
	labels []Label
	read   func() int64
	hist   func() HistSnapshot
}

// validName reports whether s is a Prometheus identifier: a label name
// is [a-zA-Z_][a-zA-Z0-9_]*, and a metric name (colon set) may also
// carry ':' anywhere. A byte loop, not a regexp: it runs for every name
// and label key a shard or client registers, and allocates nothing.
func validName(s string, colon bool) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':' && colon:
		case c >= '0' && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return s != ""
}

// Registry is an append-only set of metrics. Registration happens at
// construction time (a shard or counter registering its atomics);
// Gather evaluates every read closure at scrape time. The mutex guards
// the slice only — the closures read atomics the data path maintains
// anyway, so a scrape never blocks an operation.
//
// Registration is an append after one scan of the earlier entries: the
// scan rejects a duplicate series (same name, same label set in any
// order), type or help drift under a shared name, and a name that is or
// expands to a histogram family's _bucket/_sum/_count series. It is
// quadratic, keeps no index and allocates nothing; a registry holds one
// shard's or client's series (at most ~25), so a registration costs a
// few hundred string compares at most.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter registers a monotonically increasing metric read from the
// given closure. Registration errors (malformed name, duplicate
// series, type/help drift across a shared name) are programmer errors
// and panic.
func (r *Registry) Counter(name, help string, read func() int64, labels ...Label) {
	r.register(name, TypeCounter, help, read, labels)
}

// Gauge registers a point-in-time level metric.
func (r *Registry) Gauge(name, help string, read func() int64, labels ...Label) {
	r.register(name, TypeGauge, help, read, labels)
}

// Histogram registers a distribution metric whose snapshot closure is
// evaluated at scrape time. The name is the family name: exposition
// expands it to name_bucket{le="..."} / name_sum / name_count series,
// so those three expanded names are reserved against separate
// registrations (and a histogram family must not end in _total — that
// suffix is the counter convention).
func (r *Registry) Histogram(name, help string, h *Histogram, labels ...Label) {
	if h == nil {
		panic(fmt.Sprintf("ctlplane: histogram %s registered with a nil Histogram", name))
	}
	r.registerMetric(metric{name: name, typ: TypeHistogram, help: help, labels: labels, hist: h.Snapshot})
}

func (r *Registry) register(name string, typ Type, help string, read func() int64, labels []Label) {
	if read == nil {
		panic(fmt.Sprintf("ctlplane: metric %s registered without a read func", name))
	}
	r.registerMetric(metric{name: name, typ: typ, help: help, labels: labels, read: read})
}

func (r *Registry) registerMetric(m metric) {
	if !validName(m.name, true) {
		panic(fmt.Sprintf("ctlplane: invalid metric name %q", m.name))
	}
	for _, l := range m.labels {
		if !validName(l.Key, false) {
			panic(fmt.Sprintf("ctlplane: metric %s: invalid label name %q", m.name, l.Key))
		}
	}
	if m.typ == TypeHistogram && strings.HasSuffix(m.name, "_total") {
		panic(fmt.Sprintf("ctlplane: histogram family %s must not end in _total", m.name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, prev := range r.metrics {
		switch {
		case prev.name == m.name && sameLabels(prev.labels, m.labels):
			panic(fmt.Sprintf("ctlplane: duplicate series %s%s", m.name, formatLabels(m.labels)))
		case prev.name == m.name && (prev.typ != m.typ || prev.help != m.help):
			panic(fmt.Sprintf("ctlplane: metric %s re-registered with different type or help", m.name))
		case prev.typ == TypeHistogram && expands(prev.name, m.name):
			panic(fmt.Sprintf("ctlplane: metric %s collides with histogram family %s", m.name, prev.name))
		case m.typ == TypeHistogram && expands(m.name, prev.name):
			panic(fmt.Sprintf("ctlplane: histogram family %s expands to existing metric %s", m.name, prev.name))
		}
	}
	r.metrics = append(r.metrics, m)
}

// expands reports whether name is one of the series histogram family
// fam expands to: fam_bucket, fam_sum or fam_count.
func expands(fam, name string) bool {
	rest, ok := strings.CutPrefix(name, fam)
	return ok && (rest == "_bucket" || rest == "_sum" || rest == "_count")
}

// sameLabels reports whether a and b hold the same labels in any order
// (as multisets, so a repeated pair must repeat equally often in both).
func sameLabels(a, b []Label) bool {
	if len(a) != len(b) {
		return false
	}
	for _, l := range a {
		n := 0
		for i := range a {
			if a[i] == l {
				n++
			}
			if b[i] == l {
				n--
			}
		}
		if n != 0 {
			return false
		}
	}
	return true
}

// Gather evaluates every registered metric and returns the samples in
// registration order.
func (r *Registry) Gather() []Sample {
	r.mu.Lock()
	metrics := r.metrics
	r.mu.Unlock()
	out := make([]Sample, 0, len(metrics))
	for _, m := range metrics {
		s := Sample{Name: m.name, Type: m.typ, Help: m.help, Labels: m.labels}
		if m.hist != nil {
			snap := m.hist()
			s.Hist = &snap
		} else {
			s.Value = m.read()
		}
		out = append(out, s)
	}
	return out
}

// WritePrometheus renders samples in the Prometheus text exposition
// format (version 0.0.4): samples sharing a name are grouped under one
// # HELP / # TYPE header pair, names appear in first-seen order, and
// help text and label values are escaped per the format.
func WritePrometheus(w io.Writer, samples []Sample) error {
	var order []string
	byName := make(map[string][]Sample)
	for _, s := range samples {
		if _, ok := byName[s.Name]; !ok {
			order = append(order, s.Name)
		}
		byName[s.Name] = append(byName[s.Name], s)
	}
	for _, name := range order {
		group := byName[name]
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			name, escapeHelp(group[0].Help), name, group[0].Type); err != nil {
			return err
		}
		for _, s := range group {
			if s.Type == TypeHistogram && s.Hist != nil {
				if err := writeHistogram(w, name, s); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, "%s%s %d\n", name, formatLabels(s.Labels), s.Value); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeHistogram renders one histogram sample as the Prometheus
// cumulative-bucket form: name_bucket{...,le="..."} per bound ending
// with le="+Inf", then name_sum and name_count. The le label is
// appended after the sample's own labels, so fleet label prefixing
// composes unchanged.
func writeHistogram(w io.Writer, name string, s Sample) error {
	base := formatLabels(s.Labels)
	for _, b := range s.Hist.Buckets {
		le := "+Inf"
		if !math.IsInf(b.LE, 1) {
			le = strconv.FormatFloat(b.LE, 'g', -1, 64)
		}
		var labels string
		if base == "" {
			labels = fmt.Sprintf(`{le="%s"}`, le)
		} else {
			labels = fmt.Sprintf(`%s,le="%s"}`, base[:len(base)-1], le)
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, labels, b.Count); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, base,
		strconv.FormatFloat(s.Hist.Sum, 'g', -1, 64)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, base, s.Hist.Count)
	return err
}

func formatLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

var (
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
)

func escapeHelp(s string) string       { return helpEscaper.Replace(s) }
func escapeLabelValue(s string) string { return labelEscaper.Replace(s) }

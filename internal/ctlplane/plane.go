package ctlplane

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"syscall"
)

// Health is the two-bit liveness contract the /health endpoint serves.
// Live means the target accepts new work (false once draining or
// closed — what a load balancer keys on); Quiescent means no operation
// is currently in flight, the precondition for the exact-count Read
// (§1.1's quiescent-state counting) and for a safe final drain.
type Health struct {
	Live      bool   `json:"live"`
	Quiescent bool   `json:"quiescent"`
	Detail    string `json:"detail,omitempty"`
}

// Source is anything the control plane can front: a shard server, a
// pooled counter client, or a Fleet of either. Status returns a
// JSON-serializable topology snapshot; Gather returns evaluated metric
// samples. Implementations must not block on the data path — every
// provided implementation reads atomics or takes only registration
// locks.
type Source interface {
	Health() Health
	Status() any
	Gather() []Sample
}

// Fleet aggregates member Sources under a distinguishing label — the
// cluster-level view of a sharded deployment. Gather prefixes every
// member sample with labelKey="value" so per-member (per-stripe,
// per-shard) load sits side by side in one scrape and skew is visible;
// Health is the conjunction of member healths; Status nests member
// statuses.
type Fleet struct {
	name     string
	labelKey string
	mu       sync.Mutex
	members  []fleetMember
}

type fleetMember struct {
	value string
	src   Source
}

// NewFleet builds an empty aggregate named name; member samples gain
// the label labelKey="<member value>".
func NewFleet(name, labelKey string) *Fleet {
	if !validName(labelKey, false) {
		panic(fmt.Sprintf("ctlplane: fleet %s: invalid label name %q", name, labelKey))
	}
	return &Fleet{name: name, labelKey: labelKey}
}

// Add registers a member under its label value.
func (f *Fleet) Add(value string, src Source) {
	f.mu.Lock()
	f.members = append(f.members, fleetMember{value: value, src: src})
	f.mu.Unlock()
}

func (f *Fleet) snapshot() []fleetMember {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]fleetMember(nil), f.members...)
}

// Health is live (and quiescent) only when every member is.
func (f *Fleet) Health() Health {
	h := Health{Live: true, Quiescent: true}
	for _, m := range f.snapshot() {
		mh := m.src.Health()
		if !mh.Live {
			h.Live = false
			h.Detail = fmt.Sprintf("%s=%s not live: %s", f.labelKey, m.value, mh.Detail)
		}
		if !mh.Quiescent {
			h.Quiescent = false
		}
	}
	return h
}

// FleetMemberStatus is one member's slot in a FleetStatus.
type FleetMemberStatus struct {
	Label  string `json:"label"`
	Health Health `json:"health"`
	Status any    `json:"status"`
}

// FleetStatus is the aggregate /status document.
type FleetStatus struct {
	Name     string              `json:"name"`
	LabelKey string              `json:"label_key"`
	Members  []FleetMemberStatus `json:"members"`
}

// Status nests every member's health and status.
func (f *Fleet) Status() any {
	members := f.snapshot()
	st := FleetStatus{Name: f.name, LabelKey: f.labelKey}
	for _, m := range members {
		st.Members = append(st.Members, FleetMemberStatus{
			Label:  m.value,
			Health: m.src.Health(),
			Status: m.src.Status(),
		})
	}
	return st
}

// Gather concatenates member samples, prefixing each with the fleet's
// distinguishing label.
func (f *Fleet) Gather() []Sample {
	var out []Sample
	for _, m := range f.snapshot() {
		lbl := Label{Key: f.labelKey, Value: m.value}
		for _, s := range m.src.Gather() {
			s.Labels = append([]Label{lbl}, s.Labels...)
			out = append(out, s)
		}
	}
	return out
}

// HandlerOptions configures the optional debug surface of the admin
// mux. The zero value is the safe production default: flight tracing
// on (it is dependency-free and bounded), pprof off.
type HandlerOptions struct {
	// Pprof mounts net/http/pprof under /debug/pprof/ (profile, heap,
	// goroutine, trace, ...). Opt-in: profiling endpoints can stall a
	// busy process and leak internals, so they are off unless a
	// deployment asks for them.
	Pprof bool
}

// Handler returns the admin mux for a Source: /health (JSON; HTTP 200
// while live, 503 once draining or closed), /status (JSON topology),
// /metrics (Prometheus text exposition format), and — when the Source
// also implements FlightSource — /debug/flights (JSON, last-N
// completed flights, newest first).
func Handler(src Source) http.Handler { return HandlerOpts(src, HandlerOptions{}) }

// HandlerOpts is Handler plus the opt-in debug surface.
func HandlerOpts(src Source, opts HandlerOptions) http.Handler {
	mux := http.NewServeMux()
	if fs, ok := src.(FlightSource); ok {
		mux.HandleFunc("/debug/flights", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			if err := enc.Encode(fs.Flights()); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
	}
	if opts.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.HandleFunc("/health", func(w http.ResponseWriter, _ *http.Request) {
		h := src.Health()
		w.Header().Set("Content-Type", "application/json")
		if !h.Live {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		json.NewEncoder(w).Encode(h)
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(src.Status()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, src.Gather())
	})
	return mux
}

// Server is one listening admin endpoint.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts the admin surface for src on addr (use "127.0.0.1:0" in
// tests and read back Addr).
func Serve(addr string, src Source) (*Server, error) {
	return ServeOpts(addr, src, HandlerOptions{})
}

// ServeOpts is Serve with the opt-in debug surface configured.
func ServeOpts(addr string, src Source, opts HandlerOptions) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: HandlerOpts(src, opts)}}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the server's listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the admin server (the fronted Source is untouched —
// draining it is the job of the DrainOnSignal hook or the caller).
func (s *Server) Close() error { return s.srv.Close() }

// DrainOnSignal runs drain once when one of the given signals arrives
// (default SIGTERM and SIGINT) — the graceful-shutdown hook: pass a
// closure that Closes the counters (failing new flights, waiting out
// in-flight ones) and then the shards, and the fleet lands with exact
// counts, no token lost or duplicated. The returned done channel
// closes after drain finishes; cancel unregisters the handler without
// draining (for a clean programmatic shutdown that already drained).
func DrainOnSignal(drain func(), signals ...os.Signal) (done <-chan struct{}, cancel func()) {
	if len(signals) == 0 {
		signals = []os.Signal{syscall.SIGTERM, os.Interrupt}
	}
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, signals...)
	finished := make(chan struct{})
	stop := make(chan struct{})
	var once sync.Once
	cancel = func() {
		once.Do(func() {
			signal.Stop(ch)
			close(stop)
		})
	}
	go func() {
		select {
		case <-ch:
			signal.Stop(ch)
			drain()
			close(finished)
		case <-stop:
		}
	}()
	return finished, cancel
}

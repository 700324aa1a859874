package metrics

// The live counter surface shared by every runtime: an in-process
// Prometheus-style registry. The balogd daemon serves it on /metrics
// (text exposition format) and the load harness exports its result
// histograms and NetStats counters through it, so the daemon and the
// in-process runtimes report through one bookkeeping path instead of two.
// Stdlib only; the exposition layout is pinned by a golden test.

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready;
// all methods are safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (negative deltas are ignored — counters
// only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down. The zero value is ready; all
// methods are safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a cumulative-bucket distribution with fixed upper edges.
// Observations above the last edge land only in the implicit +Inf bucket.
type Histogram struct {
	mu     sync.Mutex
	edges  []float64
	counts []uint64 // one per edge, plus the +Inf bucket at the end
	sum    float64
	count  uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.edges, v) // first edge ≥ v: its bucket
	h.counts[i]++
	h.sum += v
	h.count++
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// series is one labeled time series of a family: exactly one of the
// collector fields is set.
type series struct {
	labels  string // rendered {k="v",...} suffix, "" for unlabeled
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64
}

// family is one metric name: a TYPE, a HELP line and its labeled series.
type family struct {
	name, help, typ string
	series          []*series
	byLabel         map[string]*series
}

// Registry is a set of metric families with a Prometheus text exposition.
// All methods are safe for concurrent use; registering an already
// registered (name, labels) pair returns the existing collector, so
// shared surfaces can re-register idempotently.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	names    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter returns the counter for (name, labels), registering it on first
// use. Labels are alternating key, value pairs.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	return r.register(name, help, "counter", labels, func(s *series) {
		if s.counter == nil {
			s.counter = &Counter{}
		}
	}).counter
}

// Gauge returns the gauge for (name, labels), registering it on first use.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	return r.register(name, help, "gauge", labels, func(s *series) {
		if s.gauge == nil {
			s.gauge = &Gauge{}
		}
	}).gauge
}

// Histogram returns the histogram for (name, labels) with the given upper
// bucket edges (ascending), registering it on first use. Edges are fixed
// at first registration; later calls with different edges get the
// existing histogram.
func (r *Registry) Histogram(name, help string, edges []float64, labels ...string) *Histogram {
	return r.register(name, help, "histogram", labels, func(s *series) {
		if s.hist == nil {
			s.hist = &Histogram{
				edges:  append([]float64(nil), edges...),
				counts: make([]uint64, len(edges)+1),
			}
		}
	}).hist
}

// CounterFunc registers a counter whose value is read from fn at
// exposition time — the bridge for counters kept elsewhere (atomic
// NetStats blocks). Re-registering replaces the function.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) {
	r.register(name, help, "counter", labels, func(s *series) { s.fn = fn })
}

// GaugeFunc registers a gauge read from fn at exposition time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.register(name, help, "gauge", labels, func(s *series) { s.fn = fn })
}

// register finds or creates the series for (name, labels) and runs set on
// it under the registry lock, so concurrent registrations agree on one
// collector. Registering one name under two types is a programming error
// and panics loudly.
func (r *Registry) register(name, help, typ string, labels []string, set func(*series)) *series {
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("metrics: odd label list for %s", name))
	}
	rendered := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, byLabel: make(map[string]*series)}
		r.families[name] = f
		r.names = append(r.names, name)
		sort.Strings(r.names)
	}
	if f.typ != typ {
		panic(fmt.Sprintf("metrics: %s registered as %s and %s", name, f.typ, typ))
	}
	s := f.byLabel[rendered]
	if s == nil {
		s = &series{labels: rendered}
		f.byLabel[rendered] = s
		f.series = append(f.series, s)
		sort.Slice(f.series, func(i, j int) bool { return f.series[i].labels < f.series[j].labels })
	}
	set(s)
	return s
}

// renderLabels renders alternating key, value pairs as the exposition
// label suffix, keys sorted so the same label set always renders the same.
func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format: families sorted by name, series by label string, histograms as
// cumulative _bucket/_sum/_count triples.
func (r *Registry) WritePrometheus(w io.Writer) error {
	// Copy every family's series under the lock: registration may add
	// series or set collectors concurrently.
	type snapshot struct {
		f      *family
		series []series
	}
	r.mu.Lock()
	fams := make([]snapshot, len(r.names))
	for i, n := range r.names {
		f := r.families[n]
		fams[i] = snapshot{f: f, series: make([]series, len(f.series))}
		for j, s := range f.series {
			fams[i].series[j] = *s
		}
	}
	r.mu.Unlock()
	for _, fs := range fams {
		f := fs.f
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for i := range fs.series {
			if err := writeSeries(w, f, &fs.series[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, s *series) error {
	switch {
	case s.hist != nil:
		return writeHistogram(w, f.name, s)
	case s.fn != nil:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatFloat(s.fn()))
		return err
	case s.counter != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, s.labels, s.counter.Value())
		return err
	case s.gauge != nil:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatFloat(s.gauge.Value()))
		return err
	}
	return nil
}

// writeHistogram renders one histogram series: cumulative buckets with an
// le label merged into the series labels, then _sum and _count.
func writeHistogram(w io.Writer, name string, s *series) error {
	h := s.hist
	h.mu.Lock()
	edges := h.edges
	counts := append([]uint64(nil), h.counts...)
	sum, count := h.sum, h.count
	h.mu.Unlock()
	var cum uint64
	for i, edge := range edges {
		cum += counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLE(s.labels, formatFloat(edge)), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLE(s.labels, "+Inf"), count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, s.labels, formatFloat(sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, s.labels, count)
	return err
}

// mergeLE appends the le bucket label to a rendered label suffix.
func mergeLE(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

// formatFloat renders a float the way the exposition format expects:
// shortest round-trip representation.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

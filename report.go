package fastba

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/fastba/fastba/internal/metrics"
)

// Stat summarizes one metric over a cell's successful runs.
type Stat struct {
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
}

func newStat(vals []float64) Stat {
	if len(vals) == 0 {
		return Stat{}
	}
	return Stat{
		Mean: metrics.Mean(vals),
		Min:  metrics.Quantile(vals, 0),
		Max:  metrics.Quantile(vals, 1),
		P50:  metrics.Quantile(vals, 0.5),
		P95:  metrics.Quantile(vals, 0.95),
	}
}

// CellReport aggregates all seeds of one sweep cell.
type CellReport struct {
	Cell Cell `json:"cell"`
	// Runs counts attempted runs; Failures those that errored (failed
	// runs carry no metrics and are excluded from the statistics).
	Runs     int `json:"runs"`
	Failures int `json:"failures"`
	// AgreeRuns counts runs with full agreement; AgreementRate is the
	// fraction over successful runs.
	AgreeRuns     int     `json:"agreeRuns"`
	AgreementRate float64 `json:"agreementRate"`
	// ValidityViolations counts runs in which any correct node decided a
	// non-gstring value (must stay 0 — Lemma 7).
	ValidityViolations int `json:"validityViolations"`
	// OracleViolations counts runs with at least one invariant-oracle
	// finding (populated when Suite.CheckOracles is set; must stay 0).
	OracleViolations int `json:"oracleViolations,omitempty"`
	// WorstDecidedFrac is the minimum over runs of the fraction of
	// correct nodes deciding gstring (0 on a validity violation).
	WorstDecidedFrac float64 `json:"worstDecidedFrac"`
	// Time, MeanBits, MaxBits and Deferred summarize the per-run metrics
	// (time rounds/causal depth — wall milliseconds in TCP-model cells).
	Time     Stat `json:"time"`
	MeanBits Stat `json:"meanBits"`
	MaxBits  Stat `json:"maxBits"`
	Deferred Stat `json:"deferred"`
	// Load summarizes sustained-load metrics (KindLog cells only).
	Load *LoadCellStats `json:"load,omitempty"`
	// Records holds the raw per-seed outcomes for custom post-processing
	// (growth fits, decision-time percentiles, coverage counts, ...).
	Records []RunRecord `json:"records"`
}

// Record returns the record for the given seed, or the zero record.
func (c *CellReport) Record(seed uint64) RunRecord {
	for _, r := range c.Records {
		if r.Seed == seed {
			return r
		}
	}
	return RunRecord{}
}

// LoadCellStats aggregates one KindLog cell's sustained-load metrics over
// its seeds: committed-entry and payload throughput, commit-latency
// percentiles-of-percentiles, and the merged latency histogram.
type LoadCellStats struct {
	Committed      Stat         `json:"committed"`
	EntriesPerSec  Stat         `json:"entriesPerSec"`
	PayloadsPerSec Stat         `json:"payloadsPerSec"`
	CommitP50Ms    Stat         `json:"commitP50Ms"`
	CommitP99Ms    Stat         `json:"commitP99Ms"`
	Hist           []HistBucket `json:"hist,omitempty"`
}

// mergeHist accumulates one run's latency histogram into the cell's
// (bucket edges are fixed, so merging is positional).
func mergeHist(into []HistBucket, h []HistBucket) []HistBucket {
	if len(h) == 0 {
		return into
	}
	if len(into) == 0 {
		return append([]HistBucket(nil), h...)
	}
	for i := range into {
		if i < len(h) {
			into[i].Count += h[i].Count
		}
	}
	return into
}

// Report is the aggregated outcome of RunSuite: one CellReport per sweep
// cell, in sweep expansion order. It is JSON-marshalable as a whole.
type Report struct {
	Suite string        `json:"suite"`
	Kind  string        `json:"kind"`
	Cells []*CellReport `json:"cells"`
}

// aggregate groups run records into cell reports, preserving expansion
// order. It is order-independent in the records' completion order.
func aggregate(s Suite, runs []plannedRun, records []RunRecord) *Report {
	rep := &Report{Suite: s.Name, Kind: s.Kind.String()}
	byCell := make(map[Cell]*CellReport)
	for i := range runs {
		cr := byCell[runs[i].cell]
		if cr == nil {
			cr = &CellReport{Cell: runs[i].cell, WorstDecidedFrac: 1}
			byCell[runs[i].cell] = cr
			rep.Cells = append(rep.Cells, cr)
		}
		cr.Records = append(cr.Records, records[i])
	}
	for _, cr := range rep.Cells {
		var times, bits, maxBits, deferred []float64
		var committed, eps, pps, p50, p99 []float64
		var hist []HistBucket
		for _, rec := range cr.Records {
			cr.Runs++
			if rec.Err != "" {
				cr.Failures++
				continue
			}
			if s.Kind == KindLog {
				committed = append(committed, float64(rec.Committed))
				eps = append(eps, rec.EntriesPerSec)
				pps = append(pps, rec.PayloadsPerSec)
				p50 = append(p50, rec.CommitP50Ms)
				p99 = append(p99, rec.CommitP99Ms)
				hist = mergeHist(hist, rec.LatencyHist)
			}
			if rec.Agreement {
				cr.AgreeRuns++
			}
			if rec.DecidedOther > 0 {
				cr.ValidityViolations++
			}
			if len(rec.OracleViolations) > 0 {
				cr.OracleViolations++
			}
			if f := rec.DecidedFrac(); f < cr.WorstDecidedFrac {
				cr.WorstDecidedFrac = f
			}
			times = append(times, float64(rec.Time))
			bits = append(bits, rec.MeanBitsPerNode)
			maxBits = append(maxBits, float64(rec.MaxBitsPerNode))
			deferred = append(deferred, float64(rec.AnswersDeferred))
		}
		if ok := cr.Runs - cr.Failures; ok > 0 {
			cr.AgreementRate = float64(cr.AgreeRuns) / float64(ok)
		} else {
			cr.WorstDecidedFrac = 0
		}
		cr.Time = newStat(times)
		cr.MeanBits = newStat(bits)
		cr.MaxBits = newStat(maxBits)
		cr.Deferred = newStat(deferred)
		if s.Kind == KindLog && len(committed) > 0 {
			cr.Load = &LoadCellStats{
				Committed:      newStat(committed),
				EntriesPerSec:  newStat(eps),
				PayloadsPerSec: newStat(pps),
				CommitP50Ms:    newStat(p50),
				CommitP99Ms:    newStat(p99),
				Hist:           hist,
			}
		}
	}
	return rep
}

// Err returns an error describing the first failed run, or nil when every
// run succeeded. Sweeps tolerate per-run failures (they are recorded and
// excluded from statistics); callers producing artifacts that must not
// silently carry holes use this to fail hard instead.
func (r *Report) Err() error {
	for _, cr := range r.Cells {
		for _, rec := range cr.Records {
			if rec.Err != "" {
				return fmt.Errorf("fastba: suite %q run %v seed %d failed: %s", r.Suite, rec.Cell, rec.Seed, rec.Err)
			}
		}
	}
	return nil
}

// Find returns the cell reports whose cell satisfies pred, in order.
func (r *Report) Find(pred func(Cell) bool) []*CellReport {
	var out []*CellReport
	for _, cr := range r.Cells {
		if pred(cr.Cell) {
			out = append(out, cr)
		}
	}
	return out
}

// WriteJSON writes the full report (cells and raw records) as indented
// JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Render writes the report as a fixed-width ASCII table in the style of
// the paper's Figure 1: one row per cell with run counts, agreement,
// time and communication statistics.
func (r *Report) Render(w io.Writer) {
	title := r.Suite
	if title == "" {
		title = "suite"
	}
	if r.Kind == KindLog.String() {
		r.renderLoad(w, title)
		return
	}
	tb := metrics.NewTable(
		fmt.Sprintf("%s (%s)", title, r.Kind),
		"n", "model", "adversary", "corrupt", "know", "fault", "scenario", "variant", "runs", "agree",
		"time μ/max", "bits/node μ", "max bits/node", "max/μ")
	for _, c := range r.Cells {
		ratio := "-"
		if c.MeanBits.Mean > 0 {
			ratio = fmt.Sprintf("%.1f", c.MaxBits.Mean/c.MeanBits.Mean)
		}
		agree := fmt.Sprintf("%d/%d", c.AgreeRuns, c.Runs)
		if c.Failures > 0 {
			agree += fmt.Sprintf(" (%d err)", c.Failures)
		}
		if c.OracleViolations > 0 {
			agree += fmt.Sprintf(" (%d VIOL)", c.OracleViolations)
		}
		tb.Add(
			fmt.Sprint(c.Cell.N), c.Cell.Model, c.Cell.Adversary,
			fmt.Sprintf("%.2f", c.Cell.CorruptFrac), fmt.Sprintf("%.2f", c.Cell.KnowFrac),
			c.Cell.Fault, c.Cell.Scenario, c.Cell.Variant, fmt.Sprint(c.Runs), agree,
			fmt.Sprintf("%.0f/%.0f", c.Time.Mean, c.Time.Max),
			metrics.Bits(c.MeanBits.Mean), metrics.Bits(c.MaxBits.Mean), ratio)
	}
	tb.Render(w)
}

// renderLoad renders a KindLog report: sustained-load throughput and
// commit-latency statistics per cell.
func (r *Report) renderLoad(w io.Writer, title string) {
	tb := metrics.NewTable(
		fmt.Sprintf("%s (%s)", title, r.Kind),
		"n", "workload", "fault", "variant", "runs", "ok",
		"commits μ", "entries/s μ", "payloads/s μ", "p50 ms", "p99 ms")
	for _, c := range r.Cells {
		ok := fmt.Sprintf("%d/%d", c.AgreeRuns, c.Runs)
		if c.Failures > 0 {
			ok += fmt.Sprintf(" (%d err)", c.Failures)
		}
		if c.OracleViolations > 0 {
			ok += fmt.Sprintf(" (%d VIOL)", c.OracleViolations)
		}
		load := c.Load
		if load == nil {
			load = &LoadCellStats{}
		}
		tb.Add(
			fmt.Sprint(c.Cell.N), c.Cell.Workload, c.Cell.Fault, c.Cell.Variant,
			fmt.Sprint(c.Runs), ok,
			fmt.Sprintf("%.1f", load.Committed.Mean),
			fmt.Sprintf("%.1f", load.EntriesPerSec.Mean),
			fmt.Sprintf("%.1f", load.PayloadsPerSec.Mean),
			fmt.Sprintf("%.1f", load.CommitP50Ms.Mean),
			fmt.Sprintf("%.1f", load.CommitP99Ms.Mean))
	}
	tb.Render(w)
}

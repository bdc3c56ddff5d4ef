package experiments

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"aos/internal/instrument"
	"aos/internal/runner"
	"aos/internal/sampling"
	"aos/internal/stats"
	"aos/internal/workload"
)

// JobError records one failed cell of a fan-out.
type JobError struct {
	Cell Cell
	Err  error
}

// joinErrors joins failed cells' errors in cell order, each prefixed by
// its cell (nil if none failed).
func joinErrors(failed []JobError) error {
	var errs []error
	for _, e := range failed {
		errs = append(errs, fmt.Errorf("%s: %w", e.Cell, e.Err))
	}
	return errors.Join(errs...)
}

// cellRuns is the outcome of a fan-out: each successful cell's summary and
// wall time, keyed by cell, and the failed cells in cell order.
type cellRuns struct {
	summaries map[Cell]Summary
	walls     map[Cell]time.Duration
	failed    []JobError
}

// runCells runs every cell o.Memo does not hold as one job on the worker
// pool, labelled "exp: cell" in the progress events, and records each
// success in the memo. It is the one place experiments fan cells out.
func runCells(exp string, cells []Cell, o Options) cellRuns {
	runs := cellRuns{
		summaries: make(map[Cell]Summary, len(cells)),
		walls:     make(map[Cell]time.Duration, len(cells)),
	}
	var todo []Cell
	for _, c := range cells {
		if r, ok := o.Memo.get(c, o); ok {
			runs.summaries[c], runs.walls[c] = r.Value, r.Wall
			continue
		}
		todo = append(todo, c)
	}
	jobs := make([]runner.Job[Summary], len(todo))
	for i, c := range todo {
		jobs[i] = runner.Job[Summary]{
			Label: exp + ": " + c.String(),
			Run:   func() (Summary, error) { return runJob(c, o) },
		}
	}
	for i, r := range runner.Run(o.ctx(), jobs, o.runnerOptions()) {
		c := todo[i]
		if r.Err != nil {
			runs.failed = append(runs.failed, JobError{Cell: c, Err: r.Err})
			continue
		}
		runs.summaries[c], runs.walls[c] = r.Value, r.Wall
		o.Memo.put(c, o, r)
	}
	return runs
}

// Memo holds the cells that finished under the Options carrying it, each
// with its Summary and wall time, so the experiments of one invocation
// simulate each distinct cell once (`aosbench -exp all` repeats 131 of
// the matrix's cells in Fig 15, the resize study, the ablations and the
// scheme comparison). A cell's outcome is a function of the cell, its
// profile's value, the sampling schedule and the sanitizer switch, which
// together key the memo, so a hit reports what a fresh run would. The
// zero value is empty and ready; a Memo is safe for concurrent use.
type Memo struct {
	mu   sync.Mutex
	runs map[memoKey]runner.Result[Summary]
}

// memoKey identifies a cell's outcome. It holds the profile by value:
// workload.SPEC returns fresh pointers on every call.
type memoKey struct {
	cell     Cell // Profile nil
	profile  workload.Profile
	sampled  bool
	schedule sampling.Schedule
	sanitize bool
}

func newMemoKey(c Cell, o Options) memoKey {
	k := memoKey{profile: *c.Profile, sanitize: o.Sanitize}
	if o.Sampling != nil {
		k.sampled, k.schedule = true, *o.Sampling
	}
	c.Profile = nil
	k.cell = c
	return k
}

// get returns the finished run of c under o (false for a nil memo).
func (m *Memo) get(c Cell, o Options) (runner.Result[Summary], bool) {
	if m == nil {
		return runner.Result[Summary]{}, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.runs[newMemoKey(c, o)]
	return r, ok
}

// put records a finished run of c under o (a no-op on a nil memo).
func (m *Memo) put(c Cell, o Options, r runner.Result[Summary]) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.runs == nil {
		m.runs = make(map[memoKey]runner.Result[Summary])
	}
	m.runs[newMemoKey(c, o)] = r
}

// column is one configuration of a table of runs: its label and the edit
// (nil for none) that turns a benchmark's default cell under scheme into
// the column's cell.
type column struct {
	label  string
	scheme instrument.Scheme
	edit   func(*Cell)
}

// runTable runs every benchmark under every column in one fan-out and
// normalizes their cycles by the first column's.
func runTable(exp string, head Table, benchmarks []*workload.Profile, cols []column, o Options) (*Table, error) {
	var names []string
	var cells []Cell
	for _, p := range benchmarks {
		names = append(names, p.Name)
		for _, col := range cols {
			c := o.cell(p, col.scheme)
			if col.edit != nil {
				col.edit(&c)
			}
			cells = append(cells, c)
		}
	}
	runs := runCells(exp, cells, o)
	if err := joinErrors(runs.failed); err != nil {
		return nil, fmt.Errorf("%s: %w", exp, err)
	}
	head.Metric = "cycles"
	for _, col := range cols {
		head.Columns = append(head.Columns, col.label)
	}
	t, err := normalize(head, names, func(r, c int) (uint64, bool) {
		s, ok := runs.summaries[cells[r*len(cols)+c]]
		return s.CPU.Cycles, ok
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", exp, err)
	}
	return t, nil
}

// Table is a baseline-normalized result, the shape of every performance
// figure in the paper: one row per benchmark, holding the benchmark's
// metric in each configuration divided by its metric in the base
// configuration, and each column's geomean over the rows. Fig 14, 15 and
// 18, the all-scheme comparison and the design-choice ablations are
// Tables, and aosd's figure documents are built from one.
type Table struct {
	// Title heads the text rendering.
	Title string
	// Metric names the quantity divided: "cycles" or "traffic".
	Metric string
	// Columns labels the configurations. The first is the base: every
	// row divides by it, so its values are 1, and String and CSV leave
	// it out.
	Columns []string
	// NoGeomean leaves the GEOMEAN row out of String and CSV.
	NoGeomean bool
	Rows      []Row
	// Geomean is each column's geomean over the rows.
	Geomean []float64
}

// Row is one benchmark's normalized values, one per column.
type Row struct {
	Name   string
	Values []float64
}

// normalize fills a table from its head (Title, Metric, Columns and
// NoGeomean): row r is rows[r] with value(r, c) / value(r, 0) in each
// column c. value reports false for a missing run. A missing run or a zero
// base is an error, since either would put NaN or Inf into a geomean.
func normalize(head Table, rows []string, value func(r, c int) (uint64, bool)) (*Table, error) {
	t := head
	t.Rows = make([]Row, len(rows))
	series := make([][]float64, len(t.Columns))
	for r, name := range rows {
		vals := make([]float64, len(t.Columns))
		var base float64
		for c, label := range t.Columns {
			v, ok := value(r, c)
			if !ok {
				return nil, fmt.Errorf("missing %s/%s run", name, label)
			}
			if c == 0 {
				if v == 0 {
					return nil, fmt.Errorf("%s: %s run has zero %s; cannot normalize", name, label, t.Metric)
				}
				base = float64(v)
			}
			vals[c] = float64(v) / base
			series[c] = append(series[c], vals[c])
		}
		t.Rows[r] = Row{Name: name, Values: vals}
	}
	t.Geomean = make([]float64, len(t.Columns))
	for c, xs := range series {
		t.Geomean[c] = stats.Geomean(xs)
	}
	return &t, nil
}

// Geomeans maps each non-base column's label to its geomean, the form the
// JSON documents carry.
func (t *Table) Geomeans() map[string]float64 {
	g := make(map[string]float64, len(t.Columns)-1)
	for c := 1; c < len(t.Columns); c++ {
		g[t.Columns[c]] = t.Geomean[c]
	}
	return g
}

// String renders the table under its title.
func (t *Table) String() string {
	tb := stats.NewTable(append([]string{"benchmark"}, t.Columns[1:]...)...)
	row := func(name string, vals []float64) {
		cells := []interface{}{name}
		for _, v := range vals[1:] {
			cells = append(cells, v)
		}
		tb.AddRow(cells...)
	}
	for _, r := range t.Rows {
		row(r.Name, r.Values)
	}
	if !t.NoGeomean {
		row("GEOMEAN", t.Geomean)
	}
	return t.Title + "\n" + tb.String()
}

// CSV renders the table as comma-separated values for external plotting,
// with lower-case column labels.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString("benchmark")
	for _, c := range t.Columns[1:] {
		b.WriteString("," + strings.ToLower(c))
	}
	b.WriteByte('\n')
	row := func(name string, vals []float64) {
		b.WriteString(name)
		for _, v := range vals[1:] {
			fmt.Fprintf(&b, ",%.4f", v)
		}
		b.WriteByte('\n')
	}
	for _, r := range t.Rows {
		row(r.Name, r.Values)
	}
	if !t.NoGeomean {
		row("geomean", t.Geomean)
	}
	return b.String()
}

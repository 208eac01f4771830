// Package sched provides the step-size schedules used by the SGD-based
// algorithms.
//
// NOMAD uses the schedule of paper eq. (11),
//
//	s_t = α / (1 + β·t^1.5),
//
// where t counts the updates already applied to the specific (i,j)
// rating. DSGD and DSGD++ instead use the "bold driver" heuristic: the
// step size grows slightly while the training objective decreases and
// is cut sharply when it increases.
package sched

import "math"

// Schedule maps an update count t (for one rating) to a step size.
type Schedule interface {
	// Step returns the step size for the t-th update, t starting at 0.
	Step(t int) float64
}

// Power is the paper's eq. (11) schedule s_t = α/(1+β·t^1.5).
type Power struct {
	Alpha, Beta float64
}

// Step implements Schedule.
func (p Power) Step(t int) float64 {
	tf := float64(t)
	return p.Alpha / (1 + p.Beta*tf*math.Sqrt(tf))
}

// Table precomputes another schedule's first maxT step sizes so the
// per-update hot path pays one slice load instead of recomputing the
// schedule formula — for Power that formula costs a math.Sqrt and a
// divide per rating, by far the most expensive scalar work in the SGD
// inner loop. Past the table it falls back to the exact schedule, so a
// Table is observationally identical to the schedule it wraps: every
// entry is produced by calling Step, hence matches bit for bit.
//
// t counts the updates applied to one specific rating, which in
// practice is the number of training sweeps, so a few thousand entries
// cover any realistic run.
//
// Solvers that hold a concrete *Table (rather than the Schedule
// interface) get a direct, inlinable call with no dynamic dispatch.
type Table struct {
	steps []float64
	exact Schedule
}

// NewTable tabulates s.Step(t) for t in [0, maxT).
func NewTable(s Schedule, maxT int) *Table {
	if maxT < 0 {
		maxT = 0
	}
	t := &Table{steps: make([]float64, maxT), exact: s}
	for i := range t.steps {
		t.steps[i] = s.Step(i)
	}
	return t
}

// Step implements Schedule: a table lookup inside [0, maxT), the exact
// schedule beyond it.
func (tb *Table) Step(t int) float64 {
	if uint(t) < uint(len(tb.steps)) {
		return tb.steps[t]
	}
	return tb.exact.Step(t)
}

// Len returns the number of tabulated steps.
func (tb *Table) Len() int { return len(tb.steps) }

// Steps exposes the precomputed table so batched kernels
// (vecmath.ItemPassFunc) can index it directly: steps[t] == Step(t)
// for t < Len(). Callers must not mutate it.
func (tb *Table) Steps() []float64 { return tb.steps }

// Fallback returns the wrapped exact schedule used past the table.
func (tb *Table) Fallback() Schedule { return tb.exact }

// Constant is a fixed step size, useful in tests and ablations.
type Constant float64

// Step implements Schedule.
func (c Constant) Step(int) float64 { return float64(c) }

// BoldDriver adapts a global step size from epoch to epoch by watching
// the training objective: if the objective decreased, the step size is
// multiplied by Grow (>1); if it increased, by Shrink (<1). This is the
// strategy Gemulla et al. use for DSGD (§5.1 of the NOMAD paper).
//
// BoldDriver is not safe for concurrent use; the bulk-synchronous
// algorithms call it once per epoch from their coordinator.
type BoldDriver struct {
	Step          float64 // current step size
	Grow, Shrink  float64
	prevObjective float64
	primed        bool
}

// NewBoldDriver returns a driver starting at step with the customary
// 1.05× growth and 0.5× shrink factors.
func NewBoldDriver(step float64) *BoldDriver {
	return &BoldDriver{Step: step, Grow: 1.05, Shrink: 0.5}
}

// Snapshot returns the driver's adaptive state for checkpointing.
func (b *BoldDriver) Snapshot() (step, prevObjective float64, primed bool) {
	return b.Step, b.prevObjective, b.primed
}

// Restore sets the driver's adaptive state from a checkpoint, so a
// resumed run continues the same growth/shrink trajectory.
func (b *BoldDriver) Restore(step, prevObjective float64, primed bool) {
	b.Step, b.prevObjective, b.primed = step, prevObjective, primed
}

// Observe reports the training objective after an epoch and adapts the
// step size. The first observation only primes the reference value.
// It returns the step size to use for the next epoch.
func (b *BoldDriver) Observe(objective float64) float64 {
	if !b.primed {
		b.primed = true
		b.prevObjective = objective
		return b.Step
	}
	if objective <= b.prevObjective {
		b.Step *= b.Grow
	} else {
		b.Step *= b.Shrink
	}
	b.prevObjective = objective
	return b.Step
}

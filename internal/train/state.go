package train

// This file defines State, the resumable snapshot of a paused training
// run: the factor model, the position in the per-rating step-size
// schedule, the RNG streams and (for NOMAD) the token-ownership map.
// Every solver captures a State into Result.Final when it stops —
// whether it ran to completion or was cancelled — and accepts one back
// through Config.Resume, so a killed run restarts where it left off.
// For deterministic configurations (one worker, no deadline) the
// restart is bit-compatible: the resumed run produces exactly the
// parameters an uninterrupted run would have.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"nomad/internal/factor"
	"nomad/internal/rng"
)

// BoldState is the bold-driver schedule position of the DSGD-family
// solvers (§5.1): the current step size and the previous epoch's
// training objective it adapts against.
type BoldState struct {
	Step   float64
	Prev   float64
	Primed bool
}

// State is a solver's full resumable training state. Which fields are
// populated depends on the algorithm; Algorithm records the producer
// and resume is refused across algorithms.
type State struct {
	// Algorithm is the solver that produced this state.
	Algorithm string
	// Seed is the run's seed, kept so a resumed run can re-derive any
	// streams that are not explicitly captured.
	Seed uint64
	// Updates is the cumulative update count at capture time. Resumed
	// runs seed their counters with it, so stop budgets (Epochs,
	// MaxUpdates) and the trace's update axis span segments.
	Updates int64
	// Ring is the epoch-driven solvers' position: DSGD/DSGD++'s ring
	// shift s, biassgd's pass number.
	Ring int64
	// Bold is the bold-driver schedule state (DSGD family); nil for
	// solvers on the eq. 11 schedule.
	Bold *BoldState
	// Model is the factor model at capture time.
	Model *factor.Model
	// Counts holds the per-rating update counts that drive the eq. (11)
	// step-size schedule, in the solver's canonical rating order
	// (NOMAD: CSC order; Hogwild/FPSGD**: CSR entry order). Nil for
	// solvers without per-rating schedules.
	Counts []int32
	// RNG holds the solver's generator streams (xoshiro256** states):
	// by convention the root stream first, then one per worker.
	RNG [][4]uint64
	// Queues is NOMAD's shared-memory token-ownership map: for each
	// worker queue, the parked item tokens in pop order. Nil for other
	// solvers and for distributed runs (whose item vectors live in the
	// model rows; their tokens are re-scattered on resume).
	Queues [][]int32
}

// Validate checks a State against the run it is about to resume: the
// producing algorithm and the model shape (k is the solver's storage
// rank — cfg.K, or cfg.K+2 for the bias-augmented model) must match.
func (s *State) Validate(algorithm string, m, n, k int) error {
	if s == nil {
		return nil
	}
	if s.Algorithm != algorithm {
		return fmt.Errorf("train: resume state from %q cannot resume %q", s.Algorithm, algorithm)
	}
	if s.Model == nil {
		return fmt.Errorf("train: resume state has no model")
	}
	if s.Model.M != m || s.Model.N != n || s.Model.K != k {
		return fmt.Errorf("train: resume model is %d×%d rank %d but run wants %d×%d rank %d",
			s.Model.M, s.Model.N, s.Model.K, m, n, k)
	}
	return nil
}

// CountsFor returns the state's per-rating counts if they match the
// expected rating total, or a fresh zero slice: a resume against a
// different train split warm-starts the factors but restarts the
// per-rating schedule.
func (s *State) CountsFor(nnz int) []int32 {
	if s != nil && len(s.Counts) == nnz {
		return s.Counts
	}
	return make([]int32, nnz)
}

// CaptureStreams records the root and per-worker RNG positions, root
// first — the convention RestoreStreams expects.
func CaptureStreams(root *rng.Source, workers []*rng.Source) [][4]uint64 {
	out := make([][4]uint64, 0, len(workers)+1)
	out = append(out, root.State())
	for _, w := range workers {
		out = append(out, w.State())
	}
	return out
}

// RestoreStreams rebuilds the root and per-worker sources from the
// state's captured streams. If the stream count does not match (e.g.
// the run resumes with a different worker count), fresh streams are
// split from the restored root — statistically sound, though no longer
// the bitwise continuation.
func (s *State) RestoreStreams(root *rng.Source, workers []*rng.Source) {
	streams := s.RNG
	if len(streams) > 0 {
		*root = *rng.FromState(streams[0])
		streams = streams[1:]
	}
	for q := range workers {
		if q < len(streams) {
			workers[q] = rng.FromState(streams[q])
		} else {
			workers[q] = root.Split(uint64(q))
		}
	}
}

// stateMagic identifies the checkpoint container format ("NMCK").
const stateMagic uint32 = 0x4e4d434b

const stateVersion uint32 = 1

// WriteBinary serializes the state. The format is versioned,
// little-endian and self-contained: header, model (factor's own
// binary format), then each optional section with a length prefix.
func (s *State) WriteBinary(w io.Writer) error {
	if s.Model == nil {
		return fmt.Errorf("train: state has no model")
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	write := func(v any) error { return binary.Write(bw, binary.LittleEndian, v) }
	if err := write(stateMagic); err != nil {
		return fmt.Errorf("train: write state header: %w", err)
	}
	for _, v := range []any{stateVersion, uint32(len(s.Algorithm))} {
		if err := write(v); err != nil {
			return fmt.Errorf("train: write state header: %w", err)
		}
	}
	if _, err := bw.WriteString(s.Algorithm); err != nil {
		return fmt.Errorf("train: write state header: %w", err)
	}
	boldFields := [3]float64{}
	hasBold := uint32(0)
	if s.Bold != nil {
		hasBold = 1
		boldFields[0] = s.Bold.Step
		boldFields[1] = s.Bold.Prev
		if s.Bold.Primed {
			boldFields[2] = 1
		}
	}
	for _, v := range []any{s.Seed, s.Updates, s.Ring, hasBold, uint32(0), boldFields} {
		if err := write(v); err != nil {
			return fmt.Errorf("train: write state scalars: %w", err)
		}
	}
	if err := s.Model.WriteBinary(bw); err != nil {
		return err
	}
	if err := write(uint64(len(s.Counts))); err != nil {
		return fmt.Errorf("train: write counts: %w", err)
	}
	if len(s.Counts) > 0 {
		if err := write(s.Counts); err != nil {
			return fmt.Errorf("train: write counts: %w", err)
		}
	}
	if err := write(uint64(len(s.RNG))); err != nil {
		return fmt.Errorf("train: write rng: %w", err)
	}
	for _, st := range s.RNG {
		if err := write(st); err != nil {
			return fmt.Errorf("train: write rng: %w", err)
		}
	}
	if err := write(uint64(len(s.Queues))); err != nil {
		return fmt.Errorf("train: write queues: %w", err)
	}
	for _, q := range s.Queues {
		if err := write(uint64(len(q))); err != nil {
			return fmt.Errorf("train: write queues: %w", err)
		}
		if len(q) > 0 {
			if err := write(q); err != nil {
				return fmt.Errorf("train: write queues: %w", err)
			}
		}
	}
	return bw.Flush()
}

// maxStateSection bounds length prefixes read from a checkpoint; it
// fits an int on every platform.
const maxStateSection = math.MaxInt32

// readInt32Section reads an n-entry int32 section in bounded chunks,
// growing the result as data actually arrives — so a corrupt length
// prefix in a tiny file fails on EOF after at most one chunk instead
// of driving a multi-GiB up-front allocation.
func readInt32Section(br io.Reader, n uint64, what string) ([]int32, error) {
	if n > maxStateSection {
		return nil, fmt.Errorf("train: corrupt checkpoint (%s length %d)", what, n)
	}
	out, err := factor.ReadSlab(br, make([]int32, 0, min(n, 1<<20)), int(n))
	if err != nil {
		return nil, fmt.Errorf("train: read %s: %w", what, err)
	}
	return out, nil
}

// ReadState deserializes a state written by WriteBinary.
func ReadState(r io.Reader) (*State, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	read := func(v any) error { return binary.Read(br, binary.LittleEndian, v) }
	var magic, version, nameLen uint32
	if err := read(&magic); err != nil {
		return nil, fmt.Errorf("train: read state header: %w", err)
	}
	if magic != stateMagic {
		return nil, fmt.Errorf("train: not a checkpoint (magic %#x)", magic)
	}
	if err := read(&version); err != nil {
		return nil, fmt.Errorf("train: read state header: %w", err)
	}
	if version != stateVersion {
		return nil, fmt.Errorf("train: unsupported checkpoint version %d", version)
	}
	if err := read(&nameLen); err != nil {
		return nil, fmt.Errorf("train: read state header: %w", err)
	}
	if nameLen > 256 {
		return nil, fmt.Errorf("train: corrupt checkpoint (algorithm name length %d)", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("train: read state header: %w", err)
	}
	s := &State{Algorithm: string(name)}
	var hasBold, reserved uint32
	var boldFields [3]float64
	for _, v := range []any{&s.Seed, &s.Updates, &s.Ring, &hasBold, &reserved, &boldFields} {
		if err := read(v); err != nil {
			return nil, fmt.Errorf("train: read state scalars: %w", err)
		}
	}
	if hasBold != 0 {
		s.Bold = &BoldState{Step: boldFields[0], Prev: boldFields[1], Primed: boldFields[2] != 0}
	}
	md, err := factor.ReadBinary(br)
	if err != nil {
		return nil, err
	}
	s.Model = md
	var n uint64
	if err := read(&n); err != nil {
		return nil, fmt.Errorf("train: read counts: %w", err)
	}
	if n > 0 {
		counts, err := readInt32Section(br, n, "counts")
		if err != nil {
			return nil, err
		}
		s.Counts = counts
	}
	if err := read(&n); err != nil {
		return nil, fmt.Errorf("train: read rng: %w", err)
	}
	if n > 1<<20 {
		return nil, fmt.Errorf("train: corrupt checkpoint (rng stream count %d)", n)
	}
	for i := uint64(0); i < n; i++ {
		var st [4]uint64
		if err := read(&st); err != nil {
			return nil, fmt.Errorf("train: read rng: %w", err)
		}
		s.RNG = append(s.RNG, st)
	}
	if err := read(&n); err != nil {
		return nil, fmt.Errorf("train: read queues: %w", err)
	}
	if n > 1<<20 {
		return nil, fmt.Errorf("train: corrupt checkpoint (queue count %d)", n)
	}
	for i := uint64(0); i < n; i++ {
		var l uint64
		if err := read(&l); err != nil {
			return nil, fmt.Errorf("train: read queues: %w", err)
		}
		q, err := readInt32Section(br, l, "queue")
		if err != nil {
			return nil, err
		}
		s.Queues = append(s.Queues, q)
	}
	return s, nil
}

package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"nomad"
	"nomad/internal/factor"
)

// The generated serving model has Gaussian rows whose coordinate c is
// scaled by userDecay^c (users) or itemDecay^c (items), so a few
// factors dominate as in a trained model; item rows are also scaled by
// a log-normal popularity factor (σ = popularitySigma). Popularity
// spreads the item norms, which is what lets the serving index prune
// at all; the decaying factors make how well it prunes depend on the
// user: a user whose row lies along the weak factors scores low
// against the high-norm items and has most of the catalog scanned.
// The values were chosen so that the mean scanned share is near 0.1
// and the p98 user's scan costs well over ten times the median user's
// (recorded per run as serve.scanned_share and serve.topn_us_*): the
// heavy tail by user that a trained model of this shape showed.
const (
	popularitySigma = 0.4
	itemDecay       = 0.4
	userDecay       = 0.95
)

// userSlots is the length of the per-slot user sequence; request slot
// i asks for users[i % userSlots].
const userSlots = 4096

// inputs is everything a workload hands the program under test, all
// derived from (workload, seed, scale) and nothing else.
type inputs struct {
	w     workload
	seed  uint64
	scale float64 // multiplies the workload's dataset scale (1 except in the smoke test)

	ds     *nomad.Dataset
	synthS float64 // wall seconds of the nomad.Synthesize call that made ds

	// The factor model of the workload: generated (serve workloads, so
	// that training changes cannot move serving numbers) or the
	// trainer's own initialisation (training workloads, where only the
	// traced pass replays it).
	model  *factor.Model
	modelB *factor.Model // swap workload: the alternate epoch
	users  []int32

	dir        string // scratch directory holding the files below
	modelPath  string
	modelBPath string
	matrixPath string

	digest string
}

func newInputs(w workload, o options, dir string) *inputs {
	return &inputs{w: w, seed: o.seed, scale: o.scale, dir: dir}
}

// synth generates the rating matrix through the public API, timed.
func (in *inputs) synth() error {
	t0 := time.Now()
	ds, err := nomad.Synthesize(in.w.Profile, in.w.Scale*in.scale, in.seed)
	in.ds, in.synthS = ds, time.Since(t0).Seconds()
	return err
}

// seal digests the dataset and, when withModel is set, adds the model,
// the user sequence and the files the serving stack reads; the
// end-to-end pass of a training workload needs none of those. Only
// what a workload hands the program in its end-to-end pass is part of
// the digest: the rating matrix, plus model bytes and user sequence
// for the serving workloads.
func (in *inputs) seal(withModel bool) error {
	h := fnv.New64a()
	digestDataset(h, in.ds)
	in.digest = fmt.Sprintf("%016x", h.Sum64())
	if !withModel {
		return nil
	}
	h.Reset()
	if err := in.addModel(h); err != nil {
		return err
	}
	if in.w.Serve {
		in.digest += fmt.Sprintf("-%016x", h.Sum64())
	}
	return nil
}

// makeInputs generates a workload's complete inputs in one step.
func makeInputs(w workload, o options, dir string) (*inputs, error) {
	in := newInputs(w, o, dir)
	if err := in.synth(); err != nil {
		return nil, err
	}
	return in, in.seal(true)
}

// checkDigest fails the run when the inputs at the pinned seed and
// full scale no longer hash to the recorded digest.
func (in *inputs) checkDigest(r *result) {
	r.Digest = in.digest
	if in.seed != pinnedSeed || in.scale != 1 {
		return
	}
	if want := pinnedDigests[in.w.Name]; want != in.digest {
		r.incorrect("input digest %s differs from the pinned %q: the workload's inputs changed", in.digest, want)
	}
}

// addModel builds the workload's model(s), user sequence and files,
// folding what the program will read into h.
func (in *inputs) addModel(h hash.Hash64) error {
	users, items := in.ds.Users(), in.ds.Items()
	if in.w.Serve {
		in.model = generateModel(users, items, in.seed)
	} else {
		in.model = factor.NewInit(users, items, rank, in.seed)
	}
	in.modelPath = filepath.Join(in.dir, "model-1.bin")
	if err := writeModel(in.modelPath, in.model, h); err != nil {
		return err
	}
	if in.w.Swap {
		in.modelB = perturbModel(in.model, in.seed)
		in.modelBPath = filepath.Join(in.dir, "model-b.bin")
		if err := writeModel(in.modelBPath, in.modelB, h); err != nil {
			return err
		}
	}
	if in.w.Serve {
		// The exclusion lists the server is started with: the training
		// matrix in the repository's text format.
		in.matrixPath = filepath.Join(in.dir, "ratings.txt")
		if err := writeMatrix(in.matrixPath, in.ds); err != nil {
			return err
		}
	}
	r := rand.New(rand.NewPCG(in.seed, 0x75736572)) // "user"
	in.users = make([]int32, userSlots)
	var buf [4]byte
	for i := range in.users {
		in.users[i] = int32(r.IntN(users))
		binary.LittleEndian.PutUint32(buf[:], uint32(in.users[i]))
		h.Write(buf[:])
	}
	return nil
}

// digestDataset folds the shape and every training rating triple, in
// row-major order, into h.
func digestDataset(h hash.Hash64, ds *nomad.Dataset) {
	var buf [16]byte
	le := binary.LittleEndian
	le.PutUint32(buf[0:], uint32(ds.Users()))
	le.PutUint32(buf[4:], uint32(ds.Items()))
	le.PutUint64(buf[8:], uint64(ds.TrainSize()))
	h.Write(buf[:])
	for u := 0; u < ds.Users(); u++ {
		for _, r := range ds.UserRatings(u) {
			le.PutUint32(buf[0:], uint32(r.User))
			le.PutUint32(buf[4:], uint32(r.Item))
			le.PutUint64(buf[8:], math.Float64bits(r.Value))
			h.Write(buf[:])
		}
	}
}

// generateModel builds the serving workloads' model; see
// popularitySigma.
func generateModel(users, items int, seed uint64) *factor.Model {
	md := factor.New(users, items, rank)
	r := rand.New(rand.NewPCG(seed, 0x6d6f64656c)) // "model"
	sd := 1 / math.Sqrt(rank)
	for u := 0; u < users; u++ {
		scale := sd
		row := md.UserRow(u)
		for c := range row {
			row[c] = scale * r.NormFloat64()
			scale *= userDecay
		}
	}
	for j := 0; j < items; j++ {
		pop := math.Exp(popularitySigma * r.NormFloat64())
		row := md.ItemRow(j)
		for c := range row {
			row[c] = sd * pop * r.NormFloat64()
			pop *= itemDecay
		}
	}
	return md
}

// perturbModel returns a copy of a with every item coordinate scaled
// by seeded noise of 5 %: a different epoch whose answers differ from
// a's while its norms, and so the work a query costs, stay alike.
func perturbModel(a *factor.Model, seed uint64) *factor.Model {
	b := a.Clone()
	r := rand.New(rand.NewPCG(seed, 0x73776170)) // "swap"
	for i := range b.HData() {
		b.HData()[i] *= 1 + 0.05*r.NormFloat64()
	}
	return b
}

// writeModel saves md in the repository's binary format and folds the
// file's bytes into h.
func writeModel(path string, md *factor.Model, h hash.Hash64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := md.WriteBinary(io.MultiWriter(f, h)); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

func writeMatrix(path string, ds *nomad.Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := ds.WriteTrainMatrix(bw); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loadNomadModel reads a saved model back through the public API, the
// way a user of the library would, for the correctness oracle.
func loadNomadModel(path string) (*nomad.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return nomad.LoadModel(bufio.NewReaderSize(f, 1<<20))
}

package nomad

// Float32 precision at the public API: every runner with a
// single-precision hot path trains and converges, the float32 model
// checkpoints and resumes bit-compatibly, the float32-vs-float64 RMSE
// gap stays within the documented tolerance on the netflix profile,
// and the unsupported solver/mode combinations are rejected at
// construction.

import (
	"bytes"
	"context"
	"math"
	"testing"
)

// float32RMSETolerance is the documented accuracy contract of
// WithPrecision(Float32) (DESIGN.md §9): on the synthetic netflix
// profile, the final test RMSE of a float32 run stays within this
// absolute distance of the float64 run with identical configuration.
// The bound is deliberately loose — float32 SGD takes a genuinely
// different trajectory after the first rounding — but a regression
// that breaks the float32 arithmetic (wrong kernel, truncated factor,
// misconverted step) blows past it immediately.
const float32RMSETolerance = 5e-3

func runPrecision(t *testing.T, prec Precision, extra ...Option) *Result {
	t.Helper()
	d := synthSmall(t)
	opts := append([]Option{
		WithPrecision(prec),
		WithSeed(17),
		WithStopConditions(MaxEpochs(4)),
	}, extra...)
	s, err := NewSession(d, opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Model.Precision() != prec {
		t.Fatalf("trained model precision %v, want %v", res.Model.Precision(), prec)
	}
	if math.IsNaN(res.TestRMSE) || res.TestRMSE > 2 {
		t.Fatalf("run did not converge: RMSE %v", res.TestRMSE)
	}
	return res
}

func TestFloat32NomadSPSCMesh(t *testing.T) {
	runPrecision(t, Float32, WithWorkers(2))
}

func TestFloat32NomadDistributedAsync(t *testing.T) {
	runPrecision(t, Float32, WithCluster(2, "hpc"), WithWorkers(2))
}

func TestFloat32Hogwild(t *testing.T) {
	runPrecision(t, Float32, WithAlgorithm("hogwild"), WithWorkers(2))
}

func TestFloat64NomadSPSCMesh(t *testing.T) {
	runPrecision(t, Float64, WithWorkers(2))
}

// TestFloat32VsFloat64RMSE is the accuracy contract: identical
// configuration at both precisions, final RMSE within
// float32RMSETolerance on the netflix profile. The float32 run must
// also genuinely train: on this dataset one epoch leaves RMSE ≈ 1.39
// and convergence is ≈ 1.09, so landing under 1.15 means the float32
// trajectory followed the float64 one to the optimum, not just away
// from the random init.
func TestFloat32VsFloat64RMSE(t *testing.T) {
	r64 := runPrecision(t, Float64, WithWorkers(1), WithStopConditions(MaxEpochs(16)))
	r32 := runPrecision(t, Float32, WithWorkers(1), WithStopConditions(MaxEpochs(16)))
	gap := math.Abs(r64.TestRMSE - r32.TestRMSE)
	t.Logf("RMSE float64 %.6f float32 %.6f gap %.2e", r64.TestRMSE, r32.TestRMSE, gap)
	if gap > float32RMSETolerance {
		t.Fatalf("float32 RMSE %v vs float64 %v: gap %v beyond tolerance %v",
			r32.TestRMSE, r64.TestRMSE, gap, float32RMSETolerance)
	}
	if r32.TestRMSE > 1.15 {
		t.Fatalf("float32 run barely trained: RMSE %v", r32.TestRMSE)
	}
}

// The checkpoint→resume bit-compatibility guarantee holds at float32
// too: the state codec round-trips the float32 payload exactly and the
// single-worker continuation replays the identical trajectory.
func TestCheckpointResumeBitCompatibleFloat32(t *testing.T) {
	checkpointResume(t, "nomad", WithPrecision(Float32))
}

func TestCheckpointResumeBitCompatibleFloat32Hogwild(t *testing.T) {
	checkpointResume(t, "hogwild", WithPrecision(Float32))
}

// TestFloat32ModelSaveLoad: the public model codec preserves precision
// and predictions exactly.
func TestFloat32ModelSaveLoad(t *testing.T) {
	res := runPrecision(t, Float32, WithWorkers(1))
	var buf bytes.Buffer
	if err := res.Model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadModel(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Precision() != Float32 {
		t.Fatalf("loaded model precision %v", got.Precision())
	}
	for _, user := range []int{0, 3} {
		for item := 0; item < got.Items(); item += 7 {
			if g, w := got.Predict(user, item), res.Model.Predict(user, item); g != w {
				t.Fatalf("prediction (%d,%d) changed across save/load: %v vs %v", user, item, g, w)
			}
		}
	}
}

func TestFloat32Rejections(t *testing.T) {
	d := synthSmall(t)
	cases := map[string][]Option{
		"batch solver als":   {WithPrecision(Float32), WithAlgorithm("als")},
		"batch solver dsgd":  {WithPrecision(Float32), WithAlgorithm("dsgd")},
		"batch solver fpsgd": {WithPrecision(Float32), WithAlgorithm("fpsgd")},
		"unknown precision":  {WithPrecision(Precision(9))},
	}
	for name, opts := range cases {
		if _, err := NewSession(d, opts...); err == nil {
			t.Errorf("%s: float32 accepted", name)
		}
	}
	// The internal guard catches configs assembled without the facade.
	if _, err := runSession(d, WithAlgorithm("als")); err != nil {
		t.Fatalf("sanity: plain als config rejected: %v", err)
	}
}

// A float64 checkpoint must not resume into a float32-configured run,
// and vice versa: precision is part of the training state.
func TestResumePrecisionMismatchRejected(t *testing.T) {
	d := synthSmall(t)
	s64, err := NewSession(d, WithSeed(5), WithStopConditions(MaxEpochs(1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s64.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := s64.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	s32, err := NewSession(d, WithPrecision(Float32), WithSeed(5), WithStopConditions(MaxEpochs(2)))
	if err != nil {
		t.Fatal(err)
	}
	if err := s32.Resume(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatal(err) // shape/algorithm validate fine; precision surfaces at Run
	}
	if _, err := s32.Run(context.Background()); err == nil {
		t.Fatal("float64 checkpoint resumed into a float32 run")
	}
}

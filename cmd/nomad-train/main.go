// Command nomad-train fits a matrix-completion model to a rating file
// (or a synthetic dataset) with any of the implemented solvers,
// streaming the convergence trace live as the run progresses.
//
// Usage:
//
//	nomad-train -profile netflix -scale 0.002 -algo nomad -epochs 10
//	nomad-train -input ratings.txt -algo dsgd -machines 4 -network commodity
//	nomad-train -profile yahoo -scale 0.001 -model out.bin
//
// Training runs are first-class jobs: Ctrl-C stops the run gracefully
// (workers park their tokens, the partial model is kept), and with
// -checkpoint the full training state is written on exit so a later
// invocation with -resume picks up exactly where the run stopped:
//
//	nomad-train -profile netflix -epochs 20 -checkpoint run.ckpt
//	^C                            # interrupted mid-run; run.ckpt written
//	nomad-train -profile netflix -epochs 20 -checkpoint run.ckpt -resume run.ckpt
//
// The input file uses the text format "rows cols nnz" header followed
// by "user item value" lines.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"nomad"
)

func main() {
	var (
		input      = flag.String("input", "", "rating matrix file (text format); empty = synthetic")
		profile    = flag.String("profile", "netflix", "synthetic profile: netflix, yahoo, hugewiki, longtail")
		scale      = flag.Float64("scale", 0.002, "synthetic dataset scale")
		algo       = flag.String("algo", "nomad", "algorithm: "+fmt.Sprint(nomad.Algorithms()))
		k          = flag.Int("k", 16, "latent dimension")
		lambda     = flag.Float64("lambda", 0.05, "regularization")
		alpha      = flag.Float64("alpha", 0.05, "step size α (eq. 11)")
		beta       = flag.Float64("beta", 0.02, "step decay β (eq. 11)")
		workers    = flag.Int("workers", 4, "worker threads per machine")
		machines   = flag.Int("machines", 1, "machines (simulated, loopback, or real cluster size)")
		network    = flag.String("network", "instant", "network backend: instant, hpc, commodity (simulated) or tcp (real sockets)")
		role       = flag.String("role", "", "multi-process cluster role: coordinator or worker")
		listen     = flag.String("listen", "", "address this process listens on (coordinator: required; worker: default :0)")
		join       = flag.String("join", "", "coordinator address a worker joins")
		lockstep   = flag.Bool("lockstep", false, "deterministic round-based distributed runner (bitwise-reproducible across backends)")
		balance    = flag.Bool("balance", false, "enable §3.3 dynamic load balancing")
		failover   = flag.Bool("failover", false, "survive a machine death: buddy replication + token-ownership failover")
		elastic    = flag.Int("elastic", 0, "provision this many spare machine slots for mid-run scale-out (implies -failover)")
		drain      = flag.Bool("drain", false, "first Ctrl-C/SIGTERM drains one machine gracefully instead of stopping the run; a second signal stops")
		chaos      = flag.String("chaos", "", "fault injection, e.g. kill:rank=2,at=mid-epoch or join@+2s;drain@+5s (kill/partition/delay/drop/join/drain; implies -failover)")
		hbEvery    = flag.Duration("heartbeat-interval", 0, "tcp liveness probe interval (0 = default 500ms)")
		hbTimeout  = flag.Duration("heartbeat-timeout", 0, "declare a silent tcp peer dead after this long (0 = default 10s)")
		epochs     = flag.Int("epochs", 10, "training epochs (cumulative across -resume segments)")
		seconds    = flag.Float64("seconds", 0, "wall-clock budget (0 = epochs only)")
		testFrac   = flag.Float64("test", 0.1, "test fraction for -input files")
		seed       = flag.Uint64("seed", 42, "random seed")
		modelOut   = flag.String("model", "", "write the trained model to this file")
		checkpoint = flag.String("checkpoint", "", "write the full training state to this file on exit")
		resume     = flag.String("resume", "", "resume from a checkpoint written by -checkpoint")
		quiet      = flag.Bool("quiet", false, "suppress the live event stream")
	)
	flag.Parse()

	ds, err := loadDataset(*input, *profile, *scale, *testFrac, *seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("dataset: %d users × %d items, %d train / %d test ratings\n",
		ds.Users(), ds.Items(), ds.TrainSize(), ds.TestSize())

	opts := []nomad.Option{
		nomad.WithAlgorithm(*algo),
		nomad.WithRank(*k),
		nomad.WithLambda(*lambda),
		nomad.WithSchedule(*alpha, *beta),
		nomad.WithWorkers(*workers),
		nomad.WithSeed(*seed),
	}
	switch *role {
	case "":
		opts = append(opts, nomad.WithCluster(*machines, *network))
	case "coordinator":
		if *listen == "" {
			fatal(fmt.Errorf("-role=coordinator needs -listen"))
		}
		opts = append(opts, nomad.WithCluster(*machines, "tcp", *listen))
	case "worker":
		if *join == "" {
			fatal(fmt.Errorf("-role=worker needs -join"))
		}
		workerListen := *listen
		if workerListen == "" {
			workerListen = ":0"
		}
		opts = append(opts, nomad.WithCluster(0, "tcp", workerListen, *join))
	default:
		fatal(fmt.Errorf("unknown -role %q (coordinator, worker)", *role))
	}
	if *lockstep {
		opts = append(opts, nomad.WithLockstep())
	}
	if *balance {
		opts = append(opts, nomad.WithLoadBalance())
	}
	if *failover {
		opts = append(opts, nomad.WithFailover())
	}
	if *elastic > 0 || *drain {
		// -drain needs the elastic runtime even with zero spares: a
		// graceful leave is a membership change like any other.
		opts = append(opts, nomad.WithElastic(*elastic))
	}
	if *chaos != "" {
		opts = append(opts, nomad.WithChaos(*chaos))
	}
	if *hbEvery != 0 || *hbTimeout != 0 {
		opts = append(opts, nomad.WithHeartbeat(*hbEvery, *hbTimeout))
	}
	stops := []nomad.StopCondition{nomad.MaxEpochs(*epochs)}
	if *seconds > 0 {
		stops = append(stops, nomad.MaxDuration(time.Duration(*seconds*float64(time.Second))))
	}
	opts = append(opts, nomad.WithStopConditions(stops...))

	s, err := nomad.NewSession(ds, opts...)
	if err != nil {
		fatal(err)
	}
	if *resume != "" {
		f, err := os.Open(*resume)
		if err != nil {
			fatal(err)
		}
		err = s.Resume(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("resumed from %s\n", *resume)
	}

	// Stream events live: trace samples as they are taken, epoch
	// boundaries, network accounting for distributed runs.
	done := make(chan struct{})
	cancelSub := func() {}
	recoveryMs := -1.0                 // set by the printer goroutine, read after <-done
	resizeMs := map[string][]float64{} // per-kind commit latencies, same discipline
	if *quiet {
		close(done)
	} else {
		var events <-chan nomad.Event
		events, cancelSub = s.Subscribe(256)
		fmt.Printf("%-10s %-12s %s\n", "seconds", "updates", "testRMSE")
		go func() {
			defer close(done)
			for e := range events {
				switch ev := e.(type) {
				case nomad.TraceEvent:
					fmt.Printf("%-10.3f %-12d %.6f\n", ev.Seconds, ev.Updates, ev.RMSE)
				case nomad.EpochEvent:
					fmt.Printf("          [epoch %d complete at %d updates]\n", ev.Epoch, ev.Updates)
				case nomad.PeerDownEvent:
					fmt.Printf("          [machine %d DOWN: %s]\n", ev.Rank, ev.Reason)
				case nomad.PeerRecoveredEvent:
					fmt.Printf("          [machine %d recovered by failover in %.1fms]\n",
						ev.Rank, ev.RecoverySeconds*1e3)
					recoveryMs = ev.RecoverySeconds * 1e3
				case nomad.ResizeEvent:
					verb := "joined"
					if ev.Kind == "drain" {
						verb = "drained"
					}
					fmt.Printf("          [machine %d %s in %.1fms; %d machines active]\n",
						ev.Rank, verb, ev.Seconds*1e3, ev.Machines)
					resizeMs[ev.Kind] = append(resizeMs[ev.Kind], ev.Seconds*1e3)
				}
			}
		}()
	}

	// Ctrl-C (or SIGTERM) cancels the run's context; every solver
	// stops promptly and hands back its partial state. With -drain the
	// first signal instead asks the run to shed one machine gracefully
	// — its tokens stream to a ring buddy, nothing is lost — and only a
	// second signal stops the run.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		drainFirst := *drain
		for range sigc {
			if drainFirst {
				drainFirst = false
				fmt.Println("          [signal: draining one machine; signal again to stop]")
				go func() {
					if err := s.Resize().Drain(-1); err != nil {
						fmt.Fprintln(os.Stderr, "nomad-train: drain:", err)
						cancel()
					}
				}()
				continue
			}
			cancel()
			return
		}
	}()

	res, err := s.Run(ctx)
	interrupted := errors.Is(err, context.Canceled)
	if err != nil && !interrupted {
		fatal(err)
	}
	if res == nil {
		// Cancelled before any trainable progress existed — e.g. a
		// worker stopped mid-rendezvous, or a lockstep rank aborted.
		fatal(fmt.Errorf("interrupted before any progress was made: %w", err))
	}
	cancel()
	cancelSub() // closes the event channel so the printer drains and exits
	<-done      // flush pending event output before the summary

	switch {
	case interrupted:
		fmt.Printf("\ninterrupted: %s stopped gracefully after %d updates in %.2fs (test RMSE %.6f)\n",
			res.Algorithm, res.Updates, res.Seconds, res.TestRMSE)
	case *role == "worker":
		// A worker holds only its partition of the model; the
		// coordinator owns the gathered result.
		fmt.Printf("\nworker done: %d cluster updates, %d messages, %d bytes sent\n",
			res.Updates, res.MessagesSent, res.BytesSent)
	default:
		fmt.Printf("\n%s: final test RMSE %.6f after %d updates in %.2fs",
			res.Algorithm, res.TestRMSE, res.Updates, res.Seconds)
		if res.MessagesSent > 0 {
			netName := *network
			if *role != "" {
				netName = "tcp"
			}
			fmt.Printf(" (%d messages, %d bytes over %s network)",
				res.MessagesSent, res.BytesSent, netName)
		}
		fmt.Println()
		// Machine-readable lines for scripts (the CI distributed job
		// asserts RMSE parity across backends on the rmse line; the
		// fault-injection job asserts recovery on recovery_ms).
		fmt.Printf("rmse: %.12f\n", res.TestRMSE)
		if recoveryMs >= 0 {
			fmt.Printf("recovery_ms: %.3f\n", recoveryMs)
		}
		if len(resizeMs) > 0 {
			// One line per run: the median request→resume latency of each
			// membership-change kind that happened (CI asserts on it).
			line := "resize_ms:"
			for _, kind := range []string{"join", "drain"} {
				if ms := resizeMs[kind]; len(ms) > 0 {
					line += fmt.Sprintf(" %s=%.3f", kind, median(ms))
				}
			}
			fmt.Println(line)
		}
		if *algo == "nomad" && (*machines > 1 || *role == "coordinator") {
			// Every distributed teardown verifies the ownership
			// invariant — each of the n item tokens recovered exactly
			// once — and fails the run otherwise, so reaching this
			// line means the check passed.
			fmt.Printf("token conservation: exact (%d item tokens recovered)\n", ds.Items())
		}
	}

	if *checkpoint != "" {
		if err := writeFile(*checkpoint, s.Checkpoint); err != nil {
			fatal(err)
		}
		fmt.Printf("training state written to %s", *checkpoint)
		if interrupted {
			fmt.Printf(" (resume with -resume %s)", *checkpoint)
		}
		fmt.Println()
	}
	if *modelOut != "" {
		if err := writeFile(*modelOut, res.Model.Save); err != nil {
			fatal(err)
		}
		fmt.Printf("model written to %s\n", *modelOut)
	}
}

// median reports the middle value of xs (mean of the middle two for
// even counts). xs must be non-empty; it is sorted in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// writeFile creates path and streams write(f) into it.
func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func loadDataset(input, profile string, scale, testFrac float64, seed uint64) (*nomad.Dataset, error) {
	if input == "" {
		return nomad.Synthesize(profile, scale, seed)
	}
	f, err := os.Open(input)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return nomad.ReadDataset(f, testFrac, seed)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nomad-train:", err)
	os.Exit(1)
}

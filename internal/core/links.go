package core

// Backend selection for distributed runs: the token runners are
// written against cluster.Link, whose one implementation is netlink's
// TCP link, and this file decides which connections stand under it —
// netsim's paced in-memory connections (sim) or real sockets (tcp), as
// a loopback mesh in this process or a true multi-process cluster.

import (
	"context"
	"fmt"
	"hash/fnv"

	"nomad/internal/cluster"
	"nomad/internal/dataset"
	"nomad/internal/netlink"
	"nomad/internal/train"
)

// configDigest fingerprints everything two processes must agree on
// before training together: dataset shape, seed, hyper-parameters,
// precision, routing, the stop budget and whether every rank keeps a
// visit log for the replay check. The rendezvous refuses a worker whose
// digest differs from the coordinator's.
func configDigest(ds *dataset.Dataset, cfg train.Config, replay bool) uint64 {
	lossName := "square"
	if cfg.Loss != nil {
		lossName = cfg.Loss.Name()
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "nomad|seed=%d|k=%d|lambda=%g|alpha=%g|beta=%g|workers=%d|batch=%d|maxupdates=%d|epochs=%d|m=%d|n=%d|nnz=%d|balance=%t|circulate=%d|loss=%s|precision=%v|loadbalance=%t|replay=%t",
		cfg.Seed, cfg.K, cfg.Lambda, cfg.Alpha, cfg.Beta, cfg.Workers, cfg.BatchSize,
		cfg.MaxUpdates, cfg.Epochs, ds.Rows(), ds.Cols(), ds.Train.NNZ(),
		cfg.BalanceUsers, cfg.Circulate, lossName, cfg.Precision, cfg.LoadBalance, replay)
	return h.Sum64()
}

// netlinkOptions builds the link options for a run, wiring peer
// failures into the typed event stream. onPeerDown, when non-nil,
// overrides the default whole-run reporting — the failover runtime
// installs its detection entry point there and enables per-peer
// eviction on the links.
func netlinkOptions(cfg train.Config, hooks *train.Hooks, onPeerDown func(self, rank int, err error)) netlink.Options {
	opts := netlink.Options{
		K:                 cfg.K,
		HeartbeatInterval: cfg.HeartbeatInterval,
		HeartbeatTimeout:  cfg.HeartbeatTimeout,
		Failover:          cfg.Failover,
		OnPeerDown:        onPeerDown,
	}
	if opts.OnPeerDown == nil {
		opts.OnPeerDown = func(self, rank int, err error) {
			hooks.Emit(train.PeerDownEvent{Rank: rank, Reason: err.Error()})
		}
	}
	return opts
}

// buildLinks returns one Link per machine for a single-process
// distributed run: the TCP link over cfg.Profile's paced in-memory
// connections (sim) or over a loopback mesh with full rendezvous (tcp).
// onPeerDown is the failover detection sink (nil without failover).
// The mesh spans every slot that could ever join, latent spares too.
func buildLinks(ctx context.Context, ds *dataset.Dataset, cfg train.Config, hooks *train.Hooks, onPeerDown func(self, rank int, err error)) ([]cluster.Link, error) {
	opts := netlinkOptions(cfg, hooks, onPeerDown)
	switch cfg.Backend {
	case "", "sim":
		return netlink.Pipe(cfg.TotalMachines(), cfg.Profile, opts), nil
	case "tcp":
		return netlink.Loopback(ctx, cfg.TotalMachines(), configDigest(ds, cfg, false), nil, nil, opts)
	}
	return nil, fmt.Errorf("core: unknown distributed backend %q (sim, tcp)", cfg.Backend)
}

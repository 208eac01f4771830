// Command nomad-serve answers top-N recommendation queries over HTTP
// from a model trained by nomad-train, with hot model swap and
// optional item sharding.
//
//	GET /v1/recommend?user=U&n=N  → {"user":U,"epoch":e,"items":[{"item":j,"score":s},...]}
//	GET /healthz                  → 200 once a model is loaded
//	GET /v1/stats                 → counters, epoch and shape info
//
// Model source (exactly one):
//
//	nomad-serve -model model.bin                 # static file
//	nomad-serve -watch ckpts/ -poll 200ms        # hot swap: highest-epoch file wins,
//	                                             # new epochs promoted live, zero dropped requests
//
// Training-set exclusion: pass the same dataset flags the model was
// trained with and rated items are excluded from results (the CI
// equality gate relies on this matching Model.Recommend):
//
//	nomad-serve -model model.bin -profile netflix -scale 0.005 -seed 42
//
// Sharded serving splits the item catalog across processes with the
// same ownership map the trainer broadcasts at rendezvous; the
// gateway scatters each query and merges the exact top-N:
//
//	nomad-serve -model model.bin -shards 3                     # loopback TCP mesh in one process
//	nomad-serve -model model.bin -role gateway -listen :7000 -machines 3
//	nomad-serve -model model.bin -role shard -join host:7000   # ×2, one per shard machine
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"nomad"
	"nomad/internal/cluster"
	"nomad/internal/factor"
	"nomad/internal/netlink"
	"nomad/internal/partition"
	"nomad/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "HTTP listen address (gateway)")
		model    = flag.String("model", "", "model or checkpoint file to serve")
		watch    = flag.String("watch", "", "directory of epoch-numbered model files, hot-swapped as they appear")
		poll     = flag.Duration("poll", 200*time.Millisecond, "watch directory poll interval")
		input    = flag.String("input", "", "rating matrix file for training-set exclusion")
		profile  = flag.String("profile", "", "synthetic dataset profile for exclusion (netflix, yahoo, hugewiki, longtail); empty = no exclusion")
		scale    = flag.Float64("scale", 0.002, "synthetic dataset scale")
		testFrac = flag.Float64("test", 0.1, "test fraction for -input files")
		seed     = flag.Uint64("seed", 42, "dataset seed (must match training)")
		shards   = flag.Int("shards", 1, "item shards served from one process over a loopback TCP mesh")
		role     = flag.String("role", "", "multi-process cluster role: gateway or shard")
		listen   = flag.String("listen", "", "address this process listens on (gateway rendezvous: required; shard: default :0)")
		join     = flag.String("join", "", "gateway rendezvous address a shard joins")
		machines = flag.Int("machines", 0, "cluster size including the gateway (gateway role)")
		maxN     = flag.Int("topn-max", 1000, "largest accepted n query parameter")
		partial  = flag.Bool("allow-partial", false, "serve partial results (X-Nomad-Partial: true) when a shard peer is down instead of failing with 503")
	)
	flag.Parse()

	if (*model == "") == (*watch == "") {
		fatal(fmt.Errorf("exactly one of -model and -watch is required"))
	}
	src := serve.Source{Path: *model, WatchDir: *watch, Poll: *poll}

	ds, err := loadDataset(*input, *profile, *scale, *testFrac, *seed)
	if err != nil {
		fatal(err)
	}
	validate := func(md *factor.Model) error {
		if ds == nil {
			return nil
		}
		if md.M != ds.Users() || md.N != ds.Items() {
			return fmt.Errorf("model shape %d×%d does not match exclusion dataset %d×%d (same -profile/-scale/-seed as training?)",
				md.M, md.N, ds.Users(), ds.Items())
		}
		return nil
	}
	var rated func(user int32) []int32
	if ds != nil {
		rated = func(user int32) []int32 { return ds.RatedItems(int(user)) }
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	switch {
	case *role == "" && *shards <= 1:
		runLocal(ctx, src, *addr, rated, validate, *maxN)
	case *role == "":
		runLoopback(ctx, src, *addr, rated, validate, *maxN, *shards, *partial)
	case *role == "gateway":
		if *listen == "" || *machines < 2 {
			fatal(fmt.Errorf("-role=gateway needs -listen and -machines ≥ 2"))
		}
		runGatewayProc(ctx, src, *addr, rated, validate, *maxN, *listen, *machines, *partial)
	case *role == "shard":
		if *join == "" {
			fatal(fmt.Errorf("-role=shard needs -join"))
		}
		shardListen := *listen
		if shardListen == "" {
			shardListen = ":0"
		}
		shardMachines := *machines
		if shardMachines < 2 {
			shardMachines = 2
		}
		runShardProc(ctx, src, *join, shardListen, shardMachines)
	default:
		fatal(fmt.Errorf("unknown -role %q (gateway, shard)", *role))
	}
}

// runLocal serves a single unsharded store.
func runLocal(ctx context.Context, src serve.Source, addr string, rated func(int32) []int32, validate func(*factor.Model) error, maxN int) {
	store, watcher, err := src.Open(nil, validate)
	if err != nil {
		fatal(err)
	}
	if watcher != nil {
		go watcher.Run(ctx)
	}
	srv := serve.NewServer(serve.Config{Store: store, Rated: rated, Watcher: watcher, MaxN: maxN})
	serveHTTP(ctx, addr, srv, store)
}

// openShard opens src restricted to one item shard. Sharded mode
// needs the model shape before traffic, so an empty watch directory
// is an error here (unlike single-shard watch mode, which may boot
// empty and fill later).
func openShard(src serve.Source, owned []int32, validate func(*factor.Model) error) (*serve.Store, *serve.Watcher) {
	store, watcher, err := src.Open(owned, validate)
	if err != nil {
		fatal(err)
	}
	if store.Seq() == 0 {
		fatal(fmt.Errorf("sharded serving needs an initial model in %s", src.WatchDir))
	}
	return store, watcher
}

// shardShape loads the model once just to learn its shape, which
// fixes the ownership map and the rendezvous config digest.
func shardShape(src serve.Source, validate func(*factor.Model) error) (m, n, k int, prec factor.Precision) {
	store, _, err := src.Open(nil, validate)
	if err != nil {
		fatal(err)
	}
	ep := store.Acquire()
	if ep == nil {
		fatal(fmt.Errorf("sharded serving needs an initial model"))
	}
	defer ep.Release()
	return ep.Model.M, ep.Model.N, ep.Model.K, ep.Model.Precision()
}

// runLoopback serves shards item shards from one process over a real
// TCP loopback mesh — the same rendezvous and ownership-map broadcast
// a multi-process cluster uses, collapsed into one binary.
func runLoopback(ctx context.Context, src serve.Source, addr string, rated func(int32) []int32, validate func(*factor.Model) error, maxN, shards int, allowPartial bool) {
	m, n, k, prec := shardShape(src, validate)
	owner := ownerMap(n, shards)
	sum := serve.ConfigDigest(m, n, k, prec, shards)
	links, err := netlink.Loopback(ctx, shards, sum, owner, nil, netlink.Options{K: k})
	if err != nil {
		fatal(err)
	}
	for rank := 1; rank < shards; rank++ {
		store, watcher, err := src.Open(ownedBy(owner, rank), nil)
		if err != nil {
			fatal(err)
		}
		if watcher != nil {
			go watcher.Run(ctx)
		}
		go func(link cluster.Link, store *serve.Store) {
			if err := serve.ServeShard(ctx, link, store); err != nil && !errors.Is(err, context.Canceled) {
				fmt.Fprintln(os.Stderr, "nomad-serve: shard:", err)
			}
		}(links[rank], store)
	}
	store, watcher := openShard(src, ownedBy(owner, 0), validate)
	if watcher != nil {
		go watcher.Run(ctx)
	}
	gw := serve.NewGateway(links[0], store, 0)
	gw.SetAllowPartial(allowPartial)
	go gw.Dispatch()
	srv := serve.NewServer(serve.Config{Store: store, Gateway: gw, Rated: rated, Watcher: watcher, MaxN: maxN})
	fmt.Printf("serving %d item shards over loopback mesh\n", shards)
	serveHTTP(ctx, addr, srv, store)
}

// runGatewayProc is the multi-process gateway: machine 0 of a netlink
// mesh, broadcasting the item ownership map at rendezvous exactly as
// the trainer's coordinator does.
func runGatewayProc(ctx context.Context, src serve.Source, addr string, rated func(int32) []int32, validate func(*factor.Model) error, maxN int, listen string, machines int, allowPartial bool) {
	m, n, k, prec := shardShape(src, validate)
	owner := ownerMap(n, machines)
	sum := serve.ConfigDigest(m, n, k, prec, machines)
	coord, err := netlink.NewCoordinator(listen, machines, sum, owner, nil, netlink.Options{K: k})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("gateway rendezvous on %s, waiting for %d shards\n", coord.Addr(), machines-1)
	link, err := coord.Run(ctx)
	if err != nil {
		fatal(err)
	}
	defer link.Close()
	store, watcher := openShard(src, ownedBy(owner, 0), validate)
	if watcher != nil {
		go watcher.Run(ctx)
	}
	gw := serve.NewGateway(link, store, 0)
	gw.SetAllowPartial(allowPartial)
	go gw.Dispatch()
	srv := serve.NewServer(serve.Config{Store: store, Gateway: gw, Rated: rated, Watcher: watcher, MaxN: maxN})
	serveHTTP(ctx, addr, srv, store)
}

// runShardProc is one multi-process shard: it joins the gateway's
// rendezvous, learns its item ownership from the handshake, and
// answers scatter queries until the link closes.
func runShardProc(ctx context.Context, src serve.Source, join, listen string, machines int) {
	// The config digest must match the gateway's, and it covers the
	// model shape AND the cluster size — so a shard started with the
	// wrong -machines (or a stale model file) is refused at the
	// handshake, before any traffic flows.
	m, n, k, prec := shardShape(src, nil)
	sum := serve.ConfigDigest(m, n, k, prec, machines)
	link, hs, err := netlink.Join(ctx, join, listen, sum, netlink.Options{K: k})
	if err != nil {
		fatal(err)
	}
	defer link.Close()
	store, watcher, err := src.Open(ownedBy(hs.Owner, link.Rank()), nil)
	if err != nil {
		fatal(err)
	}
	if store.Seq() == 0 {
		fatal(fmt.Errorf("sharded serving needs an initial model"))
	}
	if watcher != nil {
		go watcher.Run(ctx)
	}
	fmt.Printf("shard %d/%d serving %d items\n", link.Rank(), link.Machines(), len(ownedBy(hs.Owner, link.Rank())))
	if err := serve.ServeShard(ctx, link, store); err != nil && !errors.Is(err, context.Canceled) {
		fatal(err)
	}
}

// ownerMap assigns each item to a shard with the trainer's default
// partition (contiguous equal ranges).
func ownerMap(items, shards int) []int32 {
	pt := partition.EqualRanges(items, shards)
	owner := make([]int32, items)
	for j := range owner {
		owner[j] = int32(pt.Owner(j))
	}
	return owner
}

// ownedBy returns the items owner assigns to rank, ascending.
func ownedBy(owner []int32, rank int) []int32 {
	var owned []int32
	for j, o := range owner {
		if int(o) == rank {
			owned = append(owned, int32(j))
		}
	}
	return owned
}

// serveHTTP runs the HTTP front end until ctx is cancelled.
func serveHTTP(ctx context.Context, addr string, srv *serve.Server, store *serve.Store) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(shutdownCtx) //nolint:errcheck // best-effort drain
	}()
	if store.Seq() > 0 {
		fmt.Printf("serving epoch %d on %s\n", store.Seq(), ln.Addr())
	} else {
		fmt.Printf("serving on %s (no model yet; waiting for the watch directory)\n", ln.Addr())
	}
	if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
}

func loadDataset(input, profile string, scale, testFrac float64, seed uint64) (*nomad.Dataset, error) {
	if input == "" && profile == "" {
		return nil, nil
	}
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
	fmt.Fprintln(os.Stderr, "nomad-serve:", err)
	os.Exit(1)
}

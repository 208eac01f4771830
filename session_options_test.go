package nomad

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"nomad/internal/cluster"
	"nomad/internal/loss"
	"nomad/internal/train"
)

// pinConfig renders the resolved run configuration of a session — its
// algorithm and every non-zero train.Config field after Normalize —
// as one line, so a table can pin what each option list resolves to.
func pinConfig(algo string, c train.Config) string {
	parts := []string{"algo=" + algo}
	v := reflect.ValueOf(c)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			continue
		}
		var s string
		switch x := v.Field(i).Interface().(type) {
		case loss.Loss:
			s = x.Name()
		case *train.ElasticControl:
			s = "set"
		case *cluster.ChaosSpec:
			var evs []string
			for _, ev := range x.Events() {
				one := *ev
				one.Next = nil
				evs = append(evs, fmt.Sprintf("%+v", one))
			}
			s = strings.Join(evs, " | ")
		default:
			s = fmt.Sprint(x)
		}
		parts = append(parts, v.Type().Field(i).Name+"="+s)
	}
	return strings.Join(parts, "; ")
}

// TestOptionResolution pins, for a table of option lists, the
// configuration NewSession resolves after Normalize, and which lists
// NewSession or Normalize rejects.
func TestOptionResolution(t *testing.T) {
	const (
		rejectSession   = "reject: NewSession"
		rejectNormalize = "reject: Normalize"
	)
	// base is what no options resolve to (synthSmall has 18,012
	// training ratings). Every row's want lists only the fields that
	// differ from base; "Field=" means the field resolves to zero.
	const base = "algo=nomad; K=16; Lambda=0.05; Alpha=0.05; Beta=0.02; Machines=1; Workers=1; Profile={instant 0s 0}; BatchSize=100; Circulate=1; Loss=square; Epochs=10; MaxUpdates=180120; EvalPoints=16; Elastic=set; Seed=1"
	d := synthSmall(t)
	cases := []struct {
		name string
		opts []Option
		want string
	}{
		{"defaults", nil, ""},
		{"algorithm", []Option{WithAlgorithm("hogwild")}, "algo=hogwild"},
		{"rank", []Option{WithRank(8)}, "K=8"},
		{"lambda zero", []Option{WithLambda(0)}, "Lambda="},
		{"schedule", []Option{WithSchedule(0.1, 0)}, "Alpha=0.1; Beta="},
		{"workers", []Option{WithWorkers(3)}, "Workers=3"},
		{"cluster default network", []Option{WithCluster(2, "")}, "Machines=2"},
		{"cluster instant", []Option{WithCluster(2, "instant")}, "Machines=2"},
		{"cluster hpc", []Option{WithCluster(3, "hpc")}, "Machines=3; Profile={hpc 5µs 3e+09}"},
		{"cluster commodity", []Option{WithCluster(4, "commodity")}, "Machines=4; Profile={commodity 300µs 1.25e+08}"},
		{"cluster tcp", []Option{WithCluster(4, "tcp")}, "Machines=4; Backend=tcp"},
		{"cluster instant one address", []Option{WithCluster(4, "instant", ":7070")}, "reject: NewSession"},
		{"cluster hpc one address", []Option{WithCluster(4, "hpc", ":7070")}, "reject: NewSession"},
		{"cluster commodity two addresses", []Option{WithCluster(0, "commodity", ":0", "h:7070")}, "reject: NewSession"},
		{"cluster default network two addresses", []Option{WithCluster(0, "", ":0", "h:7070")}, "reject: NewSession"},
		{"cluster tcp coordinator", []Option{WithCluster(4, "tcp", ":7070")}, "Machines=4; Backend=tcp; Role=coordinator; Listen=:7070"},
		{"cluster tcp worker", []Option{WithCluster(0, "tcp", ":0", "h:7070")}, "Backend=tcp; Role=worker; Listen=:0; Join=h:7070"},
		{"cluster tcp worker sized", []Option{WithCluster(3, "tcp", ":0", "h:7070")}, "Machines=3; Backend=tcp; Role=worker; Listen=:0; Join=h:7070"},
		{"cluster tcp three addresses", []Option{WithCluster(4, "tcp", "a", "b", "c")}, "reject: NewSession"},
		{"cluster zero machines", []Option{WithCluster(0, "hpc")}, "reject: NewSession"},
		{"cluster coordinator of one", []Option{WithCluster(1, "tcp", ":7070")}, "reject: NewSession"},
		{"cluster worker negative machines", []Option{WithCluster(-1, "tcp", ":0", "h:7070")}, "reject: NewSession"},
		{"cluster unknown network", []Option{WithCluster(2, "infiniband")}, "reject: NewSession"},
		{"cluster one machine tcp", []Option{WithCluster(1, "tcp")}, "reject: Normalize"},
		{"replay check", []Option{WithCluster(2, "hpc"), WithReplayCheck()}, "Machines=2; Profile={hpc 5µs 3e+09}; Replay=true"},
		{"replay check single machine", []Option{WithReplayCheck()}, "Replay=true"},
		{"precision float32", []Option{WithPrecision(Float32)}, "Precision=float32"},
		{"precision float64 after float32", []Option{WithPrecision(Float32), WithPrecision(Float64)}, ""},
		{"loss logistic", []Option{WithLoss("logistic")}, "Loss=logistic"},
		{"loss absolute then square", []Option{WithLoss("absolute"), WithLoss("square")}, ""},
		{"load balance", []Option{WithLoadBalance()}, "LoadBalance=true"},
		{"balanced users", []Option{WithBalancedUsers()}, "BalanceUsers=true"},
		{"batch size", []Option{WithBatchSize(7)}, "BatchSize=7"},
		{"straggler", []Option{WithStraggler(2.5)}, "Straggle=2.5"},
		{"elastic zero", []Option{WithCluster(3, "instant"), WithElastic(0)}, "Machines=3; Failover=true"},
		{"elastic two", []Option{WithCluster(4, "hpc"), WithElastic(2)}, "Machines=4; Profile={hpc 5µs 3e+09}; Failover=true; ElasticSpares=2"},
		{"elastic zero single machine", []Option{WithElastic(0)}, "reject: Normalize"},
		{"failover", []Option{WithCluster(3, "commodity"), WithFailover()}, "Machines=3; Profile={commodity 300µs 1.25e+08}; Failover=true"},
		{"failover two machines", []Option{WithCluster(2, "instant"), WithFailover()}, "reject: Normalize"},
		{"heartbeat", []Option{WithHeartbeat(time.Second, 3*time.Second)}, "HeartbeatInterval=1s; HeartbeatTimeout=3s"},
		{"heartbeat zero", []Option{WithHeartbeat(time.Second, 3*time.Second), WithHeartbeat(0, 0)}, ""},
		{"chaos kill", []Option{WithCluster(4, "instant"), WithChaos("kill:rank=2,at=mid-epoch")}, "Machines=4; Failover=true; Chaos={Op:kill Rank:2 At:mid-epoch After:5 P:0.5 Window:50ms Seed:1 Delay:0s Next:<nil>}"},
		{"chaos join", []Option{WithCluster(3, "tcp"), WithChaos("join@+10ms")}, "Machines=3; Backend=tcp; Failover=true; ElasticSpares=1; Chaos={Op:join Rank:-1 At:after-delay After:1 P:0.5 Window:50ms Seed:1 Delay:10ms Next:<nil>}"},
		{"chaos empty", []Option{WithChaos("")}, ""},
		{"seed", []Option{WithSeed(9)}, "Seed=9"},
		{"seed zero", []Option{WithSeed(0)}, ""},
		{"eval points", []Option{WithEvalPoints(5)}, "EvalPoints=5"},
		{"max epochs", []Option{WithStopConditions(MaxEpochs(3))}, "Epochs=3; MaxUpdates=54036"},
		{"max epochs zero", []Option{WithStopConditions(MaxEpochs(0))}, ""},
		{"max duration", []Option{WithStopConditions(MaxDuration(2 * time.Second))}, "MaxUpdates=9223372036854775807; Deadline=2s; Epochs="},
		{"max updates", []Option{WithStopConditions(MaxUpdates(1000))}, "MaxUpdates=1000; Epochs="},
		{"all three bounds", []Option{WithStopConditions(MaxEpochs(4), MaxDuration(time.Minute), MaxUpdates(99))}, "Epochs=4; MaxUpdates=99; Deadline=1m0s"},
		{"stop conditions reset earlier bounds", []Option{
			WithStopConditions(MaxEpochs(3), MaxUpdates(50)),
			WithStopConditions(MaxDuration(time.Minute)),
		}, "MaxUpdates=9223372036854775807; Deadline=1m0s; Epochs="},
		{"later rank overrides", []Option{WithRank(8), WithRank(32)}, "K=32"},
		{"later cluster drops tcp", []Option{WithCluster(4, "tcp"), WithCluster(2, "hpc")}, "Machines=2; Profile={hpc 5µs 3e+09}"},
		{"later cluster drops role", []Option{WithCluster(4, "tcp", ":7070"), WithCluster(3, "commodity")}, "Machines=3; Profile={commodity 300µs 1.25e+08}"},
		{"later schedule overrides", []Option{WithSchedule(0.2, 0.1), WithSchedule(0.03, 0.5)}, "Alpha=0.03; Beta=0.5"},
		{"later algorithm overrides", []Option{WithAlgorithm("dsgd"), WithAlgorithm("nomad"), WithReplayCheck(), WithCluster(2, "tcp")}, "Machines=2; Backend=tcp; Replay=true"},
		{"everything", []Option{
			WithAlgorithm("nomad"), WithRank(32), WithLambda(0.1), WithSchedule(0.02, 0.05),
			WithWorkers(2), WithCluster(4, "hpc"), WithPrecision(Float32), WithLoss("absolute"),
			WithLoadBalance(), WithBalancedUsers(), WithBatchSize(50), WithStraggler(3),
			WithElastic(1), WithFailover(), WithHeartbeat(time.Second, 2*time.Second),
			WithChaos("drop:rank=1,at=snapshot,p=0.25;drain@+5ms"),
			WithSeed(42), WithEvalPoints(8),
			WithStopConditions(MaxEpochs(5), MaxDuration(time.Hour), MaxUpdates(1e6)),
		}, "K=32; Lambda=0.1; Alpha=0.02; Beta=0.05; Machines=4; Workers=2; Profile={hpc 5µs 3e+09}; BatchSize=50; LoadBalance=true; Straggle=3; Loss=absolute; BalanceUsers=true; Epochs=5; MaxUpdates=1000000; Deadline=1h0m0s; EvalPoints=8; Precision=float32; Failover=true; ElasticSpares=1; Chaos={Op:drop Rank:1 At:snapshot After:1 P:0.25 Window:50ms Seed:1 Delay:0s Next:<nil>} | {Op:drain Rank:-1 At:after-delay After:1 P:0.5 Window:50ms Seed:1 Delay:5ms Next:<nil>}; HeartbeatInterval=1s; HeartbeatTimeout=2s; Seed=42"},
		{"bad algorithm", []Option{WithAlgorithm("sgd")}, "reject: NewSession"},
		{"bad rank", []Option{WithRank(0)}, "reject: NewSession"},
		{"bad lambda", []Option{WithLambda(-0.1)}, "reject: NewSession"},
		{"bad alpha", []Option{WithSchedule(0, 0.1)}, "reject: NewSession"},
		{"bad beta", []Option{WithSchedule(0.1, -1)}, "reject: NewSession"},
		{"bad workers", []Option{WithWorkers(0)}, "reject: NewSession"},
		{"bad precision", []Option{WithPrecision(Precision(7))}, "reject: NewSession"},
		{"bad loss", []Option{WithLoss("huber")}, "reject: NewSession"},
		{"bad batch size", []Option{WithBatchSize(0)}, "reject: NewSession"},
		{"bad straggler", []Option{WithStraggler(0.5)}, "reject: NewSession"},
		{"bad elastic", []Option{WithCluster(3, "instant"), WithElastic(-1)}, "reject: NewSession"},
		{"bad heartbeat", []Option{WithHeartbeat(-time.Second, 0)}, "reject: NewSession"},
		{"heartbeat timeout under interval", []Option{WithHeartbeat(2*time.Second, time.Second)}, "reject: NewSession"},
		{"bad chaos", []Option{WithChaos("explode:rank=1")}, "reject: NewSession"},
		{"chaos rank out of range", []Option{WithCluster(3, "instant"), WithChaos("kill:rank=7,at=mid-epoch")}, "reject: Normalize"},
		{"bad eval points", []Option{WithEvalPoints(0)}, "reject: NewSession"},
		{"no stop conditions", []Option{WithStopConditions()}, "reject: NewSession"},
		{"baseline on tcp", []Option{WithAlgorithm("fpsgd"), WithCluster(2, "tcp")}, "reject: NewSession"},
		{"baseline replay check", []Option{WithAlgorithm("dsgd"), WithCluster(2, "hpc"), WithReplayCheck()}, "reject: NewSession"},
		{"baseline coordinator", []Option{WithAlgorithm("als"), WithCluster(2, "tcp", ":7070")}, "reject: NewSession"},
		{"elastic baseline", []Option{WithAlgorithm("hogwild"), WithCluster(3, "instant"), WithElastic(0)}, "reject: NewSession"},
		{"elastic coordinator role", []Option{WithCluster(3, "tcp", ":7070"), WithElastic(1)}, "reject: NewSession"},
		{"elastic worker role", []Option{WithCluster(3, "tcp", ":0", "h:7070"), WithElastic(1)}, "reject: NewSession"},
		{"failover coordinator role", []Option{WithCluster(3, "tcp", ":7070"), WithFailover()}, "reject: Normalize"},
		{"float32 hogwild", []Option{WithAlgorithm("hogwild"), WithPrecision(Float32)}, "algo=hogwild; Precision=float32"},
		{"float32 baseline", []Option{WithAlgorithm("ccd"), WithPrecision(Float32)}, "reject: NewSession"},
		{"float32 replay check", []Option{WithCluster(2, "hpc"), WithReplayCheck(), WithPrecision(Float32)}, "Machines=2; Profile={hpc 5µs 3e+09}; Precision=float32; Replay=true"},
		{"float32 coordinator", []Option{WithCluster(2, "tcp", ":7070"), WithPrecision(Float32)}, "Machines=2; Backend=tcp; Role=coordinator; Listen=:7070; Precision=float32"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got string
			s, err := NewSession(d, tc.opts...)
			if err != nil {
				got = rejectSession
			} else if cfg, err := s.base.Normalize(d.inner); err != nil {
				got = rejectNormalize
			} else {
				got = pinConfig(s.algorithm, cfg)
				if s.hooks.Replay {
					got += "; Replay=true"
				}
			}
			if strings.HasPrefix(got, "reject") || strings.HasPrefix(tc.want, "reject") {
				if got != tc.want {
					t.Fatalf("resolved %q, want %q", got, tc.want)
				}
				return
			}
			want := fields(base)
			for k, v := range fields(tc.want) {
				if v == "" {
					delete(want, k)
				} else {
					want[k] = v
				}
			}
			if !reflect.DeepEqual(fields(got), want) {
				t.Errorf("resolved\n  %s\nwant\n  %v", got, want)
			}
		})
	}
}

// fields splits a pinConfig line into its field values.
func fields(line string) map[string]string {
	out := make(map[string]string)
	for _, kv := range strings.Split(line, "; ") {
		k, v, _ := strings.Cut(kv, "=")
		out[k] = v
	}
	return out
}

package experiments

import (
	"fmt"

	"nomad/internal/ccd"
	"nomad/internal/core"
	"nomad/internal/dataset"
	"nomad/internal/dsgd"
	"nomad/internal/netsim"
	"nomad/internal/train"
)

func init() {
	register("fig8", Fig8)
	register("fig9", Fig9)
	register("fig10L", Fig10Updates)
	register("fig10R", Fig10Throughput)
	register("fig11", Fig11)
	register("fig12", Fig12)
	register("fig15", Fig15)
	register("fig16", Fig16)
	register("fig17", Fig17)
	register("fig19", Fig19)
}

// machineSweep is the {1..32}-machine sweep of the paper, scaled down.
var machineSweep = []int{1, 2, 4, 8}

// distAlgos are the four solvers of the distributed comparisons.
func distAlgos() []train.Algorithm {
	return []train.Algorithm{core.New(), dsgd.New(), dsgd.NewPP(), ccd.New()}
}

// distCompare runs the four-way comparison on every profile over the
// given network, reproducing the Fig 8 / Fig 11 layout.
func distCompare(id, title string, profile netsim.Profile, o Options, nomadWorkers int) (*Result, error) {
	res := &Result{
		ID:    id,
		Title: title,
		XAxis: "seconds",
		Notes: []string{fmt.Sprintf("machines=%d, workers=%d, network=%s, scale=%g",
			o.Machines, o.Workers, profile.Name, o.Scale)},
	}
	for _, prof := range profiles {
		ds, err := data(prof, o)
		if err != nil {
			return nil, err
		}
		for _, algo := range distAlgos() {
			cfg := timedConfig(prof, o)
			cfg.Machines = o.Machines
			cfg.Profile = profile
			if algo.Name() == "nomad" && nomadWorkers > 0 {
				// On commodity hardware NOMAD and DSGD++ reserve two of
				// the four cores for communication (§5.4).
				cfg.Workers = nomadWorkers
			}
			if algo.Name() == "dsgdpp" && nomadWorkers > 0 {
				cfg.Workers = o.Workers // footnote 8: 4 compute threads
			}
			s, tr, err := runSeries(prof+" "+algo.Name(), algo, ds, cfg, "seconds", 1)
			if err != nil {
				return nil, err
			}
			res.Series = append(res.Series, s)
			res.Notes = append(res.Notes, fmt.Sprintf("%s %s: %d msgs, %d bytes",
				prof, algo.Name(), tr.MessagesSent, tr.BytesSent))
		}
	}
	return res, nil
}

// Fig8 reproduces Figure 8: the HPC-cluster comparison of NOMAD,
// DSGD, DSGD++ and CCD++ on all three datasets.
func Fig8(o Options) (*Result, error) {
	return distCompare("fig8", "HPC cluster: NOMAD vs DSGD vs DSGD++ vs CCD++", netsim.HPC(), o, 0)
}

// Fig11 reproduces Figure 11: the same comparison on a commodity
// cluster, where NOMAD reserves half its cores for communication yet
// still wins — communication efficiency dominates (§5.4).
func Fig11(o Options) (*Result, error) {
	nomadWorkers := o.Workers / 2
	if nomadWorkers < 1 {
		nomadWorkers = 1
	}
	return distCompare("fig11", "Commodity cluster: NOMAD vs DSGD vs DSGD++ vs CCD++", netsim.Commodity(), o, nomadWorkers)
}

// machineScaling runs NOMAD across the machine sweep and reports RMSE
// against seconds×machines×cores, the Fig 9 / Fig 17 layout.
func machineScaling(id, title string, profile netsim.Profile, o Options) (*Result, error) {
	res := &Result{
		ID:    id,
		Title: title,
		XAxis: "seconds×workers",
		Notes: []string{fmt.Sprintf("network=%s; curves coinciding ⇒ linear scaling", profile.Name)},
	}
	for _, prof := range profiles {
		ds, err := data(prof, o)
		if err != nil {
			return nil, err
		}
		for _, machines := range machineSweep {
			cfg := baseConfig(prof, o)
			cfg.Machines = machines
			cfg.Profile = profile
			s, _, err := runSeries(fmt.Sprintf("%s machines=%d", prof, machines),
				core.New(), ds, cfg, "seconds×workers", float64(machines*cfg.Workers))
			if err != nil {
				return nil, err
			}
			res.Series = append(res.Series, s)
		}
	}
	return res, nil
}

// Fig9 reproduces Figure 9 (HPC machine-scaling of NOMAD).
func Fig9(o Options) (*Result, error) {
	return machineScaling("fig9", "NOMAD: RMSE vs seconds×machines×cores (HPC)", netsim.HPC(), o)
}

// Fig17 reproduces Appendix C Figure 17 (the commodity version).
func Fig17(o Options) (*Result, error) {
	return machineScaling("fig17", "NOMAD: RMSE vs seconds×machines×cores (commodity)", netsim.Commodity(), o)
}

// machineUpdates runs NOMAD across the machine sweep reporting RMSE vs
// update count (Figs 10-left, 15, 19).
func machineUpdates(id, title string, profile netsim.Profile, o Options, profs []string) (*Result, error) {
	res := &Result{ID: id, Title: title, XAxis: "updates",
		Notes: []string{fmt.Sprintf("network=%s", profile.Name)}}
	for _, prof := range profs {
		ds, err := data(prof, o)
		if err != nil {
			return nil, err
		}
		for _, machines := range machineSweep {
			cfg := baseConfig(prof, o)
			cfg.Machines = machines
			cfg.Profile = profile
			s, _, err := runSeries(fmt.Sprintf("%s machines=%d", prof, machines),
				core.New(), ds, cfg, "updates", 1)
			if err != nil {
				return nil, err
			}
			res.Series = append(res.Series, s)
		}
	}
	return res, nil
}

// Fig10Updates reproduces Figure 10 (left): RMSE vs updates on
// yahoo-like data as machines vary (HPC).
func Fig10Updates(o Options) (*Result, error) {
	return machineUpdates("fig10L", "NOMAD: RMSE vs updates as machines vary (yahoo-like, HPC)",
		netsim.HPC(), o, []string{"yahoo"})
}

// Fig15 reproduces Appendix C Figure 15: the commodity version, all
// datasets.
func Fig15(o Options) (*Result, error) {
	return machineUpdates("fig15", "NOMAD: RMSE vs updates as machines vary (commodity)",
		netsim.Commodity(), o, profiles)
}

// Fig19 reproduces Appendix D Figure 19: the HPC version, all datasets.
func Fig19(o Options) (*Result, error) {
	return machineUpdates("fig19", "NOMAD: RMSE vs updates as machines vary (HPC)",
		netsim.HPC(), o, profiles)
}

// machineThroughput reports updates/machine/core/sec across the
// machine sweep (Figs 10-right and 16).
func machineThroughput(id, title string, profile netsim.Profile, o Options) (*Result, error) {
	res := &Result{
		ID:    id,
		Title: title,
		Notes: []string{fmt.Sprintf("network=%s", profile.Name)},
		Table: &Table{Headers: []string{"machines", "netflix", "yahoo", "hugewiki"}},
	}
	rows := map[int][]string{}
	for _, machines := range machineSweep {
		rows[machines] = []string{fmt.Sprintf("%d", machines)}
	}
	for _, prof := range profiles {
		ds, err := data(prof, o)
		if err != nil {
			return nil, err
		}
		for _, machines := range machineSweep {
			cfg := baseConfig(prof, o)
			cfg.Machines = machines
			cfg.Profile = profile
			_, tr, err := runSeries("", core.New(), ds, cfg, "seconds", 1)
			if err != nil {
				return nil, err
			}
			rows[machines] = append(rows[machines], fmt.Sprintf("%.0f", tr.Throughput(cfg).PerWorkerPerSec()))
		}
	}
	for _, machines := range machineSweep {
		res.Table.Rows = append(res.Table.Rows, rows[machines])
	}
	return res, nil
}

// Fig10Throughput reproduces Figure 10 (right) on the HPC profile.
func Fig10Throughput(o Options) (*Result, error) {
	return machineThroughput("fig10R", "NOMAD: updates/machine/core/sec vs machines (HPC)", netsim.HPC(), o)
}

// Fig16 reproduces Appendix C Figure 16 (commodity).
func Fig16(o Options) (*Result, error) {
	return machineThroughput("fig16", "NOMAD: updates/machine/core/sec vs machines (commodity)", netsim.Commodity(), o)
}

// Fig12 reproduces Figure 12 (§5.5): both the data and the machine
// count grow together; the synthetic generator fixes the item count
// and scales users and ratings with the machine count.
func Fig12(o Options) (*Result, error) {
	res := &Result{
		ID:    "fig12",
		Title: "Weak scaling: data grows with machines (NOMAD vs DSGD vs DSGD++ vs CCD++)",
		XAxis: "seconds",
		Notes: []string{"§5.5 generator: items fixed, users ∝ machines, commodity network"},
	}
	for _, machines := range []int{2, 4, 8} {
		spec := dataset.Grow(machines, o.Scale/4)
		spec.Seed = o.Seed
		ds, err := spec.Generate()
		if err != nil {
			return nil, err
		}
		for _, algo := range distAlgos() {
			cfg := timedConfig("netflix", o)
			cfg.Machines = machines
			cfg.Profile = netsim.Commodity()
			s, _, err := runSeries(fmt.Sprintf("m=%d %s", machines, algo.Name()), algo, ds, cfg, "seconds", 1)
			if err != nil {
				return nil, err
			}
			res.Series = append(res.Series, s)
		}
	}
	return res, nil
}

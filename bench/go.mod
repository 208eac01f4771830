module nomad/bench

go 1.23

require nomad v0.0.0

replace nomad => ../

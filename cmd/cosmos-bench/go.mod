module repro/cmd/cosmos-bench

go 1.23

require repro v0.0.0

replace repro => ../..

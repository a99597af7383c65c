module crossflow/benchmark

go 1.22

require crossflow v0.0.0

replace crossflow => ../

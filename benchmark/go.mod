module ihtl/benchmark

go 1.22

require ihtl v0.0.0

replace ihtl => ../

module zht/benchmark

go 1.22

require zht v0.0.0

replace zht => ../

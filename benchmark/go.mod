module d3l/benchmark

go 1.23

require d3l v0.0.0

replace d3l => ../

module rdgc/benchmark

go 1.22

require rdgc v0.0.0

replace rdgc => ../

module dhsketch/bench

go 1.22

require dhsketch v0.0.0

replace dhsketch => ../

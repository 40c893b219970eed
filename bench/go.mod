module met/bench

go 1.24

require met v0.0.0

replace met => ../

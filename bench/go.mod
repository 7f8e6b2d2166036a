module wanac/bench

go 1.24

require wanac v0.0.0

replace wanac => ../

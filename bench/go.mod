module ppgnn/bench

go 1.22

require ppgnn v0.0.0

replace ppgnn => ../

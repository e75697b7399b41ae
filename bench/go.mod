module gdeltmine/bench

go 1.23

require gdeltmine v0.0.0

replace gdeltmine => ../

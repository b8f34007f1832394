module fastppr/bench

go 1.22

require fastppr v0.0.0

replace fastppr => ../

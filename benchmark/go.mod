module almostmix/benchmark

go 1.22

require almostmix v0.0.0

replace almostmix => ../

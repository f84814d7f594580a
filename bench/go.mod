module mds2/bench

go 1.22

require mds2 v0.0.0

replace mds2 => ../

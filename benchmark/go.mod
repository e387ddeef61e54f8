module kset/benchmark

go 1.24

require kset v0.0.0

replace kset => ../

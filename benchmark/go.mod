module lite/benchmark

go 1.22

require lite v0.0.0

replace lite => ../

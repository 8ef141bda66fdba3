module dpspark/benchmark

go 1.22

require dpspark v0.0.0

replace dpspark => ../

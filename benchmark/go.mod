module amri/benchmark

go 1.24

require amri v0.0.0

replace amri => ../

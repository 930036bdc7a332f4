// The benchmark is a module of its own so that it builds from this
// directory alone; it reaches the repository's packages, internal ones
// included, because its module path lies under theirs.
module db2www/benchmark

go 1.22

require db2www v0.0.0

replace db2www => ../

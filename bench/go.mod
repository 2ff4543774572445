// The benchmark is a module of its own so that the repository's build
// and tier-1 tests never depend on it; the replace points at the
// checkout it sits in, whose internal packages it measures.
module crowdselect/bench

go 1.22

require crowdselect v0.0.0

replace crowdselect => ../

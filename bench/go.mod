// The benchmark is a module of its own (the acceptance contract wants
// a compiled benchmark to carry its own build file in its own
// directory); the replace directive points at the repository under
// test. Import paths under quarry/bench/ may import quarry/internal/...
// (the internal rule is by import path), which bench/layers relies on.
module quarry/bench

go 1.24

require quarry v0.0.0

replace quarry => ../
